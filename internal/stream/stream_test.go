package stream

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"xmlest/internal/core"
	"xmlest/internal/datagen"
	"xmlest/internal/match"
	"xmlest/internal/xmltree"
)

func sourceFromString(doc string) Source {
	return func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader([]byte(doc))), nil
	}
}

func sourceFromTree(t *testing.T, tr *xmltree.Tree) (Source, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := xmltree.WriteXML(&buf, tr, tr.Root()); err != nil {
		t.Fatalf("WriteXML: %v", err)
	}
	doc := buf.String()
	return sourceFromString(doc), doc
}

func TestBuildMatchesTreeHistograms(t *testing.T) {
	tr := xmltree.Fig1Document()
	src, doc := sourceFromTree(t, tr)

	res, err := Build(src, 4, []EventPredicate{
		TagPred{Tag: "faculty"},
		TagPred{Tag: "TA"},
		TagPred{Tag: "RA"},
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Reparse (attribute-free document) to compare against the
	// materialized-tree histograms; the numbering must coincide.
	back, err := xmltree.ParseString(doc)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if back.MaxPos != res.Grid.MaxPos() {
		t.Fatalf("position space differs: stream %d, tree %d", res.Grid.MaxPos(), back.MaxPos)
	}
	for _, tag := range []string{"faculty", "TA", "RA"} {
		if err := VerifyAgainstTree(back, res, tag); err != nil {
			t.Errorf("%v", err)
		}
	}
	if res.Nodes != back.NumNodes() {
		t.Errorf("nodes = %d, want %d", res.Nodes, back.NumNodes())
	}
	if res.MaxDepth != 3 {
		t.Errorf("max depth = %d, want 3", res.MaxDepth)
	}
	if res.Hists["TRUE"].Total() != float64(back.NumNodes()) {
		t.Errorf("TRUE total = %v, want %d", res.Hists["TRUE"].Total(), back.NumNodes())
	}
}

func TestStreamedEstimateMatchesTreeEstimate(t *testing.T) {
	tr := datagen.GenerateDBLP(datagen.DBLPConfig{Seed: 4, Scale: 0.01})
	src, _ := sourceFromTree(t, tr)
	res, err := Build(src, 10, []EventPredicate{
		TagPred{Tag: "article"},
		TagPred{Tag: "author"},
		ContentPrefixPred{Alias: "conf", Tag: "cite", Prefix: "conf"},
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	est, err := core.EstimateAncestorBased(res.Hists["tag=article"], res.Hists["tag=author"])
	if err != nil {
		t.Fatalf("estimate: %v", err)
	}
	real := float64(match.CountPairs(tr, tr.NodesWithTag("article"), tr.NodesWithTag("author")))
	if real == 0 {
		t.Fatalf("degenerate dataset")
	}
	// The streamed histograms come from the same numbering (modulo the
	// attribute-free serialization), so the estimate must be in the
	// same band a tree-built estimator would produce.
	if ratio := est.Total() / real; ratio < 0.1 || ratio > 10 {
		t.Errorf("streamed estimate %v vs real %v", est.Total(), real)
	}
	if res.Hists["conf"].Total() <= 0 {
		t.Errorf("content-prefix predicate matched nothing")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(sourceFromString("<a><b></a>"), 4, nil); err == nil {
		t.Errorf("malformed XML: want error")
	}
	if _, err := Build(sourceFromString("<a/>"), 4, []EventPredicate{
		FuncPred{Alias: "TRUE", Fn: func(*Event) bool { return true }},
	}); err == nil {
		t.Errorf("reserved TRUE name: want error")
	}
	if _, err := Build(sourceFromString("<a/>"), 4, []EventPredicate{
		TagPred{Tag: "a"}, TagPred{Tag: "a"},
	}); err == nil {
		t.Errorf("duplicate predicate: want error")
	}
	fails := 0
	failingSrc := func() (io.ReadCloser, error) {
		fails++
		return nil, io.ErrUnexpectedEOF
	}
	if _, err := Build(failingSrc, 4, nil); err == nil {
		t.Errorf("failing source: want error")
	}
}

func TestFuncPred(t *testing.T) {
	src := sourceFromString(`<db><x>deep</x><y><x>nested</x></y></db>`)
	res, err := Build(src, 2, []EventPredicate{
		FuncPred{Alias: "depth2+", Fn: func(ev *Event) bool { return ev.Depth >= 2 }},
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Elements at depth >= 2: x(depth 2), y(2), x(3) = 3.
	if got := res.Hists["depth2+"].Total(); got != 3 {
		t.Errorf("depth2+ total = %v, want 3", got)
	}
}

func TestStreamedTextAssembly(t *testing.T) {
	src := sourceFromString(`<db><cite>conf/x/y</cite><cite> journals/z </cite></db>`)
	res, err := Build(src, 2, []EventPredicate{
		ContentPrefixPred{Alias: "conf", Tag: "cite", Prefix: "conf"},
		ContentPrefixPred{Alias: "journal", Tag: "cite", Prefix: "journals"},
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if res.Hists["conf"].Total() != 1 || res.Hists["journal"].Total() != 1 {
		t.Errorf("prefix totals = %v / %v, want 1 / 1",
			res.Hists["conf"].Total(), res.Hists["journal"].Total())
	}
}

func TestLemma1HoldsOnStreamedHistograms(t *testing.T) {
	tr := datagen.GenerateHier(datagen.DefaultHierConfig)
	src, _ := sourceFromTree(t, tr)
	res, err := Build(src, 10, []EventPredicate{
		TagPred{Tag: "manager"}, TagPred{Tag: "employee"},
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for name, h := range res.Hists {
		if err := h.CheckLemma1(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if math.IsNaN(h.Total()) {
			t.Errorf("%s: NaN total", name)
		}
	}
}

func TestBuildAllTagsDiscoversVocabulary(t *testing.T) {
	tr := xmltree.Fig1Document()
	src, doc := sourceFromTree(t, tr)
	res, err := BuildAllTags(src, 4)
	if err != nil {
		t.Fatalf("BuildAllTags: %v", err)
	}
	back, err := xmltree.ParseString(doc)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	// One histogram per distinct tag, plus TRUE, nothing else.
	tags := back.Tags()
	if len(res.Hists) != len(tags)+1 {
		t.Fatalf("%d histograms for %d tags", len(res.Hists), len(tags))
	}
	for _, tag := range tags {
		if res.Hists["tag="+tag] == nil {
			t.Fatalf("missing histogram for discovered tag %q", tag)
		}
		if err := VerifyAgainstTree(back, res, tag); err != nil {
			t.Errorf("%v", err)
		}
	}
	if res.Hists["TRUE"].Total() != float64(back.NumNodes()) {
		t.Errorf("TRUE total = %v, want %d", res.Hists["TRUE"].Total(), back.NumNodes())
	}
}

func TestBuildAllTagsEstimatorServesPatterns(t *testing.T) {
	tr := datagen.GenerateDBLP(datagen.DBLPConfig{Seed: 7, Scale: 0.01})
	src, _ := sourceFromTree(t, tr)
	est, res, err := BuildAllTagsEstimator(src, 10)
	if err != nil {
		t.Fatalf("BuildAllTagsEstimator: %v", err)
	}
	if res.Nodes == 0 {
		t.Fatal("no nodes")
	}
	r, err := est.EstimatePair("tag=article", "tag=author")
	if err != nil {
		t.Fatalf("EstimatePair: %v", err)
	}
	if r.Estimate <= 0 {
		t.Fatalf("estimate %v, want > 0", r.Estimate)
	}
	// The wrapped estimator serves the discovered vocabulary.
	for _, name := range []string{"tag=article", "tag=author"} {
		if !est.HasPredicate(name) {
			t.Fatalf("estimator lacks %q", name)
		}
	}
}

// randomDoc writes a document with attributes (namespace declarations
// among them), prefixed names, mixed content, CDATA, comments and
// whitespace around text runs.
func randomDoc(r *rand.Rand) string {
	tags := []string{"a", "b", "p:e"}
	attrs := []string{` k="v"`, ` id='1'`, ` k=" spaced "`, ` xmlns="u"`, ` xmlns:p="u"`, ` p:q="2"`,
		` xmlns:x="xmlns" x:r="3"`, ` v="a&amp;b"`}
	texts := []string{"", "x", " x ", "\n  ", "a b", " y\t", "&amp; z", "<![CDATA[ c ]]>", "<!-- n -->"}
	var sb strings.Builder
	var elem func(depth int)
	elem = func(depth int) {
		tag := tags[r.Intn(len(tags))]
		sb.WriteString("<" + tag + ` xmlns:p="u"`)
		for n := r.Intn(3); n > 0; n-- {
			sb.WriteString(attrs[r.Intn(len(attrs))])
		}
		if depth > 3 || r.Intn(4) == 0 {
			sb.WriteString("/>")
			return
		}
		sb.WriteString(">")
		for n := r.Intn(4); n > 0; n-- {
			sb.WriteString(texts[r.Intn(len(texts))])
			if r.Intn(2) == 0 {
				elem(depth + 1)
			}
		}
		sb.WriteString("</" + tag + ">")
	}
	for n := 1 + r.Intn(2); n > 0; n-- {
		sb.WriteString(texts[r.Intn(len(texts))])
		elem(0)
	}
	return sb.String()
}

// TestScanMatchesTreeNodes checks that the streamed events are exactly
// the nodes of xmltree.Parse — tags, text and labels — so that
// /append-stream and /append of one document estimate alike.
func TestScanMatchesTreeNodes(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		doc := randomDoc(rand.New(rand.NewSource(seed)))
		tr, err := xmltree.ParseString(doc)
		if err != nil {
			t.Fatalf("seed %d: ParseString(%q): %v", seed, doc, err)
		}
		var events []Event
		if err := scan(sourceFromString(doc), func(ev *Event) { events = append(events, *ev) }); err != nil {
			t.Fatalf("seed %d: scan(%q): %v", seed, doc, err)
		}
		sort.Slice(events, func(i, j int) bool { return events[i].Start < events[j].Start })
		var want []Event
		for _, n := range tr.Nodes[1:] {
			want = append(want, Event{Tag: n.Tag, Text: n.Text, Start: n.Start, End: n.End, Depth: n.Depth})
		}
		if !reflect.DeepEqual(events, want) {
			t.Fatalf("seed %d: %q\nstream: %+v\ntree:   %+v", seed, doc, events, want)
		}
		if n, _, err := countNodes(sourceFromString(doc), false); err != nil || n != tr.NumNodes() {
			t.Fatalf("seed %d: countNodes = %d, %v; tree has %d nodes", seed, n, err, tr.NumNodes())
		}
	}
}

func TestScanNumbersAttributesAndTrimsRuns(t *testing.T) {
	var got []Event
	doc := `<a k="v"><b>x</b></a><c>x <d/> y</c>`
	if err := scan(sourceFromString(doc), func(ev *Event) { got = append(got, *ev) }); err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Tag: "@k", Text: "v", Start: 2, End: 3, Depth: 2},
		{Tag: "b", Text: "x", Start: 4, End: 5, Depth: 2},
		{Tag: "a", Start: 1, End: 6, Depth: 1},
		{Tag: "d", Start: 8, End: 9, Depth: 2},
		{Tag: "c", Text: "xy", Start: 7, End: 10, Depth: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("events = %+v, want %+v", got, want)
	}
}
