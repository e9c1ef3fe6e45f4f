package core

import (
	"math"
	"testing"

	"xmlest/internal/histogram"
	"xmlest/internal/predicate"
	"xmlest/internal/xmltree"
)

// fuzzSeedSummaries builds summary blobs covering the container's
// branches: plain tag summaries, coverage histograms, level histograms,
// non-uniform (equi-depth) grids, fractional counts, and an XQS2 shard
// set wrapping two of them.
func fuzzSeedSummaries(f *testing.F) [][]byte {
	f.Helper()
	var blobs [][]byte

	tree := xmltree.Fig1Document()
	cat := predicate.NewCatalog(tree)
	cat.AddAllTags()
	cat.Add(predicate.True{})

	for _, opts := range []Options{
		{GridSize: 2},
		{GridSize: 4, LevelHistograms: true},
		{GridSize: 3, EquiDepth: true},
	} {
		est, err := NewEstimator(cat, opts)
		if err != nil {
			f.Fatal(err)
		}
		b, err := est.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		blobs = append(blobs, b)
	}

	// Fractional counts: a summary assembled from a synthetic estimated
	// histogram (the float branch of the cell encoding).
	grid := histogram.MustUniformGrid(3, 30)
	trueHist := histogram.NewPosition(grid, []histogram.Cell{{I: 0, J: 2, Count: 10}})
	frac := histogram.NewPosition(grid, []histogram.Cell{{I: 0, J: 1, Count: 0.375}, {I: 1, J: 2, Count: 2.5}})
	est := &Estimator{
		grid:     grid,
		trueHist: trueHist,
		names:    []string{"frac"},
		hists:    map[string]*histogram.Position{"frac": frac},
		covs:     map[string]*histogram.Coverage{},
		overlap:  map[string]bool{"frac": true},
	}
	fb, err := est.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	blobs = append(blobs, fb)

	// XQS2 shard-set container wrapping two summaries.
	e1, err := UnmarshalEstimator(blobs[0])
	if err != nil {
		f.Fatal(err)
	}
	setBlob, err := MarshalShardSet([]ShardSummary{
		{ID: 1, Docs: 1, Nodes: tree.NumNodes(), Est: e1},
		{ID: 2, Docs: 0, Nodes: 10, Est: est},
	})
	if err != nil {
		f.Fatal(err)
	}
	blobs = append(blobs, setBlob)
	return blobs
}

// estimatorsEquivalent compares two estimators structurally: names,
// grids, per-cell histogram counts (bitwise) and overlap flags.
func estimatorsEquivalent(t *testing.T, a, b *Estimator) {
	t.Helper()
	an, bn := a.Names(), b.Names()
	if len(an) != len(bn) {
		t.Fatalf("name count %d != %d", len(an), len(bn))
	}
	for i := range an {
		if an[i] != bn[i] {
			t.Fatalf("name %d: %q != %q", i, an[i], bn[i])
		}
	}
	if !a.Grid().Equal(b.Grid()) {
		t.Fatal("grid changed")
	}
	check := func(ha, hb *histogram.Position, label string) {
		g := ha.Grid().Size()
		for i := 0; i < g; i++ {
			for j := 0; j < g; j++ {
				if math.Float64bits(ha.Count(i, j)) != math.Float64bits(hb.Count(i, j)) {
					t.Fatalf("%s cell (%d,%d): %v != %v", label, i, j, ha.Count(i, j), hb.Count(i, j))
				}
			}
		}
	}
	check(a.TrueHistogram(), b.TrueHistogram(), "TRUE")
	for _, name := range an {
		ha, err := a.Histogram(name)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := b.Histogram(name)
		if err != nil {
			t.Fatal(err)
		}
		check(ha, hb, name)
		if a.NoOverlap(name) != b.NoOverlap(name) {
			t.Fatalf("%s overlap flag changed", name)
		}
		ca, cb := a.CoverageHistogram(name), b.CoverageHistogram(name)
		if (ca == nil) != (cb == nil) {
			t.Fatalf("%s coverage presence changed", name)
		}
	}
}

// FuzzSummaryEncodeDecode round-trips the estimator summary container:
// any blob UnmarshalEstimator accepts must re-marshal and re-unmarshal
// to a structurally identical estimator, and the decoder must never
// panic. XQS2 shard-set blobs get the same treatment per shard.
func FuzzSummaryEncodeDecode(f *testing.F) {
	for _, b := range fuzzSeedSummaries(f) {
		f.Add(b)
	}
	f.Add([]byte("XQS1"))
	f.Add([]byte("XQS2\x01"))
	f.Add([]byte("junk"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if shards, err := UnmarshalShardSet(data); err == nil {
			blob, err := MarshalShardSet(shards)
			if err != nil {
				t.Fatalf("re-marshal shard set: %v", err)
			}
			shards2, err := UnmarshalShardSet(blob)
			if err != nil {
				t.Fatalf("re-unmarshal shard set: %v", err)
			}
			if len(shards) != len(shards2) {
				t.Fatalf("shard count %d != %d", len(shards), len(shards2))
			}
			for i := range shards {
				if shards[i].ID != shards2[i].ID || shards[i].Docs != shards2[i].Docs || shards[i].Nodes != shards2[i].Nodes {
					t.Fatalf("shard %d metadata changed", i)
				}
				estimatorsEquivalent(t, shards[i].Est, shards2[i].Est)
			}
			return
		}
		est, err := UnmarshalEstimator(data)
		if err != nil {
			return
		}
		blob, err := est.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted summary failed: %v", err)
		}
		est2, err := UnmarshalEstimator(blob)
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		estimatorsEquivalent(t, est, est2)
	})
}
