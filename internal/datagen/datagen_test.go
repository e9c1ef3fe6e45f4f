package datagen

import (
	"bytes"
	"math"
	"runtime/debug"
	"strings"
	"testing"

	"xmlest/internal/xmltree"
)

func TestGenerateDBLPMatchesTable1(t *testing.T) {
	tr := GenerateDBLP(DefaultDBLPConfig)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	cat := DBLPCatalog(tr)

	// Exact Table 1 cardinalities at scale 1.
	exact := map[string]int{
		"tag=article": 7366,
		"tag=author":  41501,
		"tag=book":    408,
		"tag=cdrom":   1722,
		"tag=cite":    33097,
		"tag=title":   19921,
		"tag=url":     19542,
		"tag=year":    19914,
		"conf":        13609,
		"journal":     7834,
		"1980's":      13066,
		"1990's":      3963,
	}
	for name, want := range exact {
		if got := cat.MustGet(name).Count(); got != want {
			t.Errorf("%s count = %d, want %d", name, got, want)
		}
	}
	// Overlap properties of Table 1: every element-tag predicate is
	// no-overlap in DBLP.
	for _, name := range []string{"tag=article", "tag=author", "tag=book", "tag=cdrom",
		"tag=cite", "tag=title", "tag=url", "tag=year"} {
		if !cat.MustGet(name).NoOverlap {
			t.Errorf("%s should be no-overlap", name)
		}
	}
}

func TestGenerateDBLPDeterministic(t *testing.T) {
	cfg := DBLPConfig{Seed: 7, Scale: 0.01}
	a := GenerateDBLP(cfg)
	b := GenerateDBLP(cfg)
	if a.NumNodes() != b.NumNodes() {
		t.Fatalf("node counts differ: %d vs %d", a.NumNodes(), b.NumNodes())
	}
	for i := range a.Nodes {
		if a.Nodes[i].Tag != b.Nodes[i].Tag || a.Nodes[i].Start != b.Nodes[i].Start {
			t.Fatalf("node %d differs between runs", i)
		}
	}
}

func TestGenerateDBLPScale(t *testing.T) {
	tr := GenerateDBLP(DBLPConfig{Seed: 1, Scale: 0.05})
	cat := DBLPCatalog(tr)
	got := cat.MustGet("tag=article").Count()
	want := int(math.Round(7366 * 0.05))
	if got != want {
		t.Errorf("scaled article count = %d, want %d", got, want)
	}
}

func TestGenerateHierMatchesTable3(t *testing.T) {
	tr := GenerateHier(DefaultHierConfig)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	cat := HierCatalog(tr)

	// Table 3 cardinalities are generation targets, not exact: accept
	// ±40% while requiring the right relative magnitudes.
	targets := map[string]int{
		"tag=manager":    44,
		"tag=department": 270,
		"tag=employee":   473,
		"tag=email":      173,
		"tag=name":       1002,
	}
	for name, want := range targets {
		got := cat.MustGet(name).Count()
		lo, hi := int(math.Floor(0.6*float64(want))), int(math.Ceil(1.4*float64(want)))
		if got < lo || got > hi {
			t.Errorf("%s count = %d, want within [%d, %d] (paper: %d)", name, got, lo, hi, want)
		}
	}
	// Overlap properties must match Table 3 exactly.
	for name, wantNoOverlap := range map[string]bool{
		"tag=manager":    false,
		"tag=department": false,
		"tag=employee":   true,
		"tag=email":      true,
		"tag=name":       true,
	} {
		if got := cat.MustGet(name).NoOverlap; got != wantNoOverlap {
			t.Errorf("%s NoOverlap = %v, want %v", name, got, wantNoOverlap)
		}
	}
}

func TestParseDTDAndGenerate(t *testing.T) {
	d, err := ParseDTD(ManagerDTD)
	if err != nil {
		t.Fatalf("ParseDTD: %v", err)
	}
	if len(d.Elements) != 5 {
		t.Fatalf("elements = %d, want 5", len(d.Elements))
	}
	tr, err := d.Generate(GenConfig{Seed: 3, Root: "manager", MaxDepth: 8, MaxNodes: 500})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tr.NumNodes() < 3 {
		t.Fatalf("generated tree too small: %d nodes", tr.NumNodes())
	}
	// DTD conformance spot checks: every employee has >= 1 name child
	// and no child other than name/email; manager's first child is name.
	for _, e := range tr.NodesWithTag("employee") {
		kids := tr.Children(e)
		names := 0
		for _, k := range kids {
			switch tr.Node(k).Tag {
			case "name":
				names++
			case "email":
			default:
				t.Fatalf("employee has unexpected child %q", tr.Node(k).Tag)
			}
		}
		if names < 1 {
			t.Fatalf("employee without name")
		}
	}
	for _, m := range tr.NodesWithTag("manager") {
		kids := tr.Children(m)
		if len(kids) < 2 {
			t.Fatalf("manager must have name plus at least one of (manager|department|employee)")
		}
		if tr.Node(kids[0]).Tag != "name" {
			t.Fatalf("manager's first child = %q, want name", tr.Node(kids[0]).Tag)
		}
	}
	for _, dep := range tr.NodesWithTag("department") {
		employees := 0
		for _, k := range tr.Children(dep) {
			if tr.Node(k).Tag == "employee" {
				employees++
			}
		}
		if employees < 1 {
			t.Fatalf("department without employee")
		}
	}
}

func TestParseDTDErrors(t *testing.T) {
	bad := []string{
		``,
		`<!ELEMENT a (b)>`, // b undeclared
		`<!ELEMENT a (b,>`, // malformed
		`<!ELEMENT a (#PCDATA)> <!ELEMENT a (EMPTY)>`,                                      // duplicate... second also malformed
		`<!ELEMENT a (b | c, d)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY> <!ELEMENT d EMPTY>`, // mixed , |
		`<!ELEMENT a (#PCDATA)> <!ELEMENT b (a`,
	}
	for _, src := range bad {
		if _, err := ParseDTD(src); err == nil {
			t.Errorf("ParseDTD(%q): want error", src)
		}
	}
}

// TestParseDTDRejectsUnterminated: an element whose mandatory content
// always recurses has no finite document, so Generate would expand it
// until the stack overflows. ParseDTD must refuse it and name it.
func TestParseDTDRejectsUnterminated(t *testing.T) {
	for _, c := range []struct{ src, name string }{
		{`<!ELEMENT a (a)>`, "a"},
		{`<!ELEMENT a (a+)>`, "a"},
		{`<!ELEMENT b EMPTY> <!ELEMENT a (b, a)>`, "a"},
		{`<!ELEMENT a (b)> <!ELEMENT b (a)>`, "a"},
		{`<!ELEMENT r (#PCDATA)> <!ELEMENT a (r | b)> <!ELEMENT b (b, r)>`, "b"},
	} {
		_, err := ParseDTD(c.src)
		if err == nil {
			t.Errorf("ParseDTD(%q): accepted an element with no finite expansion", c.src)
			continue
		}
		if want := "element " + c.name + " "; !strings.Contains(err.Error(), want) {
			t.Errorf("ParseDTD(%q) = %v, want it to name element %s", c.src, err, c.name)
		}
	}
}

// TestDTDDepthBudgetSteersByOptionality: past the depth budget a
// choice must take the alternative with the shallowest mandatory
// content. Alternative (q*, r) needs depth 1 because q* may be
// omitted; counting q's depth would steer e to s, whose own shallowest
// alternative is e again, and expansion would never end.
func TestDTDDepthBudgetSteersByOptionality(t *testing.T) {
	src := `<!ELEMENT e ((q*, r) | s)> <!ELEMENT r EMPTY> <!ELEMENT s (e | t)>
		<!ELEMENT q (q1)> <!ELEMENT q1 (q2)> <!ELEMENT q2 (q3)> <!ELEMENT q3 EMPTY>
		<!ELEMENT t (t1)> <!ELEMENT t1 (t2)> <!ELEMENT t2 EMPTY>`
	d, err := ParseDTD(src)
	if err != nil {
		t.Fatalf("ParseDTD: %v", err)
	}
	defer debug.SetMaxStack(debug.SetMaxStack(16 << 20))
	for seed := int64(0); seed < 20; seed++ {
		tr, err := d.Generate(GenConfig{Seed: seed, Root: "e", MaxDepth: 4, MaxNodes: 1000})
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestDTDGenerateUnknownRoot(t *testing.T) {
	d, err := ParseDTD(`<!ELEMENT a (#PCDATA)>`)
	if err != nil {
		t.Fatalf("ParseDTD: %v", err)
	}
	if _, err := d.Generate(GenConfig{Root: "zzz"}); err == nil {
		t.Errorf("unknown root: want error")
	}
}

func TestDTDDepthBudgetTerminates(t *testing.T) {
	// Unbounded mutual recursion must terminate via MaxDepth steering.
	src := `<!ELEMENT a (b)> <!ELEMENT b (a | c)> <!ELEMENT c (#PCDATA)>`
	d, err := ParseDTD(src)
	if err != nil {
		t.Fatalf("ParseDTD: %v", err)
	}
	tr, err := d.Generate(GenConfig{Seed: 1, Root: "a", MaxDepth: 6, MaxNodes: 10000})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if s := tr.Stats(); s.MaxDepth > 10 {
		t.Errorf("depth budget not honoured: max depth %d", s.MaxDepth)
	}
}

func TestGenerateExtraDatasets(t *testing.T) {
	sh := GenerateShakespeare(1, 2)
	if err := sh.Validate(); err != nil {
		t.Fatalf("shakespeare: %v", err)
	}
	if got := len(sh.NodesWithTag("PLAY")); got != 2 {
		t.Errorf("plays = %d, want 2", got)
	}
	if len(sh.NodesWithTag("LINE")) == 0 || len(sh.NodesWithTag("SPEECH")) == 0 {
		t.Errorf("shakespeare lacks speeches/lines")
	}

	xm := GenerateXMark(1, 10)
	if err := xm.Validate(); err != nil {
		t.Fatalf("xmark: %v", err)
	}
	if got := len(xm.NodesWithTag("item")); got != 40 {
		t.Errorf("items = %d, want 40 (10 per region)", got)
	}
	if len(xm.NodesWithTag("open_auction")) == 0 {
		t.Errorf("xmark lacks auctions")
	}
}

func TestWriteXMLRoundTrip(t *testing.T) {
	tr := GenerateDBLP(DBLPConfig{Seed: 5, Scale: 0.002})
	var buf bytes.Buffer
	if err := xmltree.WriteXML(&buf, tr, tr.Root()); err != nil {
		t.Fatalf("WriteXML: %v", err)
	}
	back, err := xmltree.ParseString(buf.String())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if back.NumNodes() != tr.NumNodes() {
		t.Errorf("round trip nodes = %d, want %d", back.NumNodes(), tr.NumNodes())
	}
	for _, tag := range []string{"article", "author", "cite", "year"} {
		if got, want := len(back.NodesWithTag(tag)), len(tr.NodesWithTag(tag)); got != want {
			t.Errorf("%s count after round trip = %d, want %d", tag, got, want)
		}
	}
}
