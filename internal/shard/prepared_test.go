package shard

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"xmlest/internal/core"
	"xmlest/internal/pattern"
)

// TestFanOutWorkerInvariance: the fan-out estimate, compiled or not,
// is bit-identical for every worker-pool size (the sum always runs in
// shard order).
func TestFanOutWorkerInvariance(t *testing.T) {
	st := NewStore(allTagsSpec())
	for i := 0; i < 7; i++ {
		if _, err := st.AppendTree(doc(3+i, 2+i%3)); err != nil {
			t.Fatal(err)
		}
	}
	p := pattern.MustParse("//department//faculty//TA")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var base core.Result
	for i, workers := range []int{1, 2, 5, 16} {
		runtime.GOMAXPROCS(workers)
		res, err := st.Current().EstimateTwig(p, defaultOpts)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := st.PrepareSet(st.Current(), p, defaultOpts)
		if err != nil {
			t.Fatal(err)
		}
		if len(pr.queries) != 7 {
			t.Fatalf("workers=%d: %d per-shard queries, want 7", workers, len(pr.queries))
		}
		pres, err := pr.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		if pres.Estimate != res.Estimate {
			t.Fatalf("workers=%d: prepared %v != uncompiled %v", workers, pres.Estimate, res.Estimate)
		}
		if i == 0 {
			base = res
			continue
		}
		if res.Estimate != base.Estimate {
			t.Fatalf("workers=%d: %v != workers=1 %v", workers, res.Estimate, base.Estimate)
		}
	}
}

// TestRebindExtendsAppendedSet: rebinding after appends reuses the
// earlier binding's queries and sum and compiles only the new shards,
// yet gives the same bits as a fresh binding; a compaction rebinds from
// scratch.
func TestRebindExtendsAppendedSet(t *testing.T) {
	st := NewStore(allTagsSpec())
	for i := 0; i < 4; i++ {
		if _, err := st.AppendTree(doc(2+i, 1+i%2)); err != nil {
			t.Fatal(err)
		}
	}
	p := pattern.MustParse("//department//faculty//TA")
	prev, err := st.PrepareSet(st.Current(), p, defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	// check rebinds prev to the current set. A carried binding starts
	// from prev's sum and holds only the appended shards' queries (at
	// most one per step); any other compiles every shard afresh.
	check := func(step string, carried bool) {
		t.Helper()
		b, err := st.Rebind(prev, st.Current(), p, defaultOpts)
		if err != nil {
			t.Fatal(err)
		}
		full, err := st.Current().Prepare(p, defaultOpts)
		if err != nil {
			t.Fatal(err)
		}
		if carried && (b.fromEst != prev.est || len(b.queries) > 1) {
			t.Fatalf("%s: carried %v with %d queries to fold, want %v and at most one", step, b.fromEst, len(b.queries), prev.est)
		}
		if !carried && (b.fromEst != 0 || len(b.queries) != len(full.queries)) {
			t.Fatalf("%s: carried %v with %d queries to fold, want 0 and %d", step, b.fromEst, len(b.queries), len(full.queries))
		}
		got, err := b.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := st.Current().EstimateTwig(p, defaultOpts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Estimate) != math.Float64bits(fresh.Estimate) {
			t.Fatalf("%s: rebound %v != fresh %v", step, got.Estimate, fresh.Estimate)
		}
		prev = b
	}
	// Shards without a TA add no query; the carried prefix stays exact.
	for i, tas := range []int{0, 2, 0, 1} {
		if _, err := st.AppendTree(doc(3+i, tas)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("append %d", i), true)
	}
	if _, err := st.Compact(DefaultCompactionPolicy); err != nil {
		t.Fatal(err)
	}
	check("compaction", false)
	check("unchanged set", true)
}

// TestServingStress races estimates against appends, drops and
// compactions; run with -race. Every estimate must succeed and stay
// finite and non-negative while the corpus mutates underneath it.
func TestServingStress(t *testing.T) {
	st := NewStore(allTagsSpec())
	if _, err := st.AppendTree(doc(3, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.EnsureSummaries(defaultOpts); err != nil {
		t.Fatal(err)
	}
	const (
		writers   = 2
		readers   = 4
		perWriter = 15
	)
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				info, err := st.AppendTree(doc(2+i%4, 1+i%3))
				if err != nil {
					t.Error(err)
					return
				}
				switch i % 3 {
				case 0:
					if _, err := st.Compact(DefaultCompactionPolicy); err != nil {
						t.Error(err)
						return
					}
				case 1:
					st.Drop(info.ID())
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			p := pattern.MustParse("//faculty//TA")
			for {
				select {
				case <-stop:
					return
				default:
				}
				pr, err := st.PrepareSet(st.Current(), p, defaultOpts)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := pr.Estimate()
				if err != nil {
					t.Error(err)
					return
				}
				if res.Estimate < 0 || math.IsNaN(res.Estimate) {
					t.Errorf("bad estimate %v", res.Estimate)
					return
				}
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
}
