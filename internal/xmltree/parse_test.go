package xmltree

import (
	"strings"
	"testing"
	"time"
)

// TestParseManyTextRuns parses an element with a million text runs
// between child elements. Appending each run to the element's text in
// place made this quadratic: a 32 MB /append body would have held an
// ingest worker for over an hour.
func TestParseManyTextRuns(t *testing.T) {
	const runs = 1_000_000
	doc := "<a>" + strings.Repeat("x<b/>", runs) + "</a>"
	start := time.Now()
	tr, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("parsing %d text runs took %v, want under 5s", runs, elapsed)
	}
	a := tr.Node(tr.NodesWithTag("a")[0])
	if a.Text != strings.Repeat("x", runs) || tr.NumNodes() != runs+1 {
		t.Errorf("got %d nodes and %d text bytes, want %d and %d", tr.NumNodes(), len(a.Text), runs+1, runs)
	}
}

// TestParseTreeRules pins how documents become nodes. Every case also
// holds for the encoding/xml-based reference (FuzzParseMatchesReference).
func TestParseTreeRules(t *testing.T) {
	cases := []struct {
		doc  string
		want string // tag=text of each node in document order
	}{
		// Each text run is trimmed on its own.
		{`<a> x <b/> y </a>`, "a=xy b="},
		{`<a> x <![CDATA[ y ]]> z <!-- c --> w </a>`, "a=xyzw"},
		// Attributes become "@name" children; values are not trimmed.
		{`<a k=" v " p:q="1"/>`, "a= @k= v  @q=1"},
		// Namespace declarations are dropped, and so is an attribute
		// whose prefix is bound to the URI "xmlns".
		{`<a xmlns="u" xmlns:p="xmlns" p:x="1" y="2"/>`, "a= @y=2"},
		{`<a xmlns:p="xmlns"><b p:x="1"/></a><c p:x="2"/>`, "a= b= c= @x=2"},
		// A surrogate's character reference decodes to U+FFFD.
		{`<a>&#xD800;&#65;&lt;</a>`, "a=�A<"},
		{"<a>1\r\n2\r3</a>", "a=1\n2\n3"},
		// Only the local part of a prefixed name is the tag.
		{`<p:a></p:a>`, "a="},
	}
	for _, c := range cases {
		tr, err := ParseString(c.doc)
		if err != nil {
			t.Errorf("%q: %v", c.doc, err)
			continue
		}
		var got []string
		for _, n := range tr.Nodes[1:] {
			got = append(got, n.Tag+"="+n.Text)
		}
		if strings.Join(got, " ") != c.want {
			t.Errorf("%q: got %q, want %q", c.doc, strings.Join(got, " "), c.want)
		}
	}
}

// TestParseDoesNotPinInput checks that tags and text are copies: after
// the parsed bytes are overwritten, the tree still reads the same.
func TestParseDoesNotPinInput(t *testing.T) {
	data := []byte(`<doc k="v"><a>text</a><a>x&amp;y</a></doc>`)
	b := NewBuilder()
	p := parser{b: b, names: make(map[string]*xname)}
	if err := p.parse(data); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'Z'
	}
	var got []string
	for _, n := range b.Tree().Nodes[1:] {
		got = append(got, n.Tag+"="+n.Text)
	}
	if want := "doc= @k=v a=text a=x&y"; strings.Join(got, " ") != want {
		t.Errorf("got %q, want %q", strings.Join(got, " "), want)
	}
}

// TestParseSmallDocumentPinsItsLength checks the text-chunk rule: the
// values of a small document, appended on its own, share one chunk no
// larger than the document, so the tree does not keep a full-size
// chunk alive for a few hundred bytes of text. The document is 512
// bytes, one of the allocator's size classes, so rounding a request of
// at most its length up to a size class stays within it.
func TestParseSmallDocumentPinsItsLength(t *testing.T) {
	var doc strings.Builder
	doc.WriteString(`<batch source="tail">`)
	for i := 0; doc.Len() < 400; i++ {
		doc.WriteString(`<rec id="r` + strings.Repeat("x", i%5) + `"><title>a &amp; b</title> text </rec>`)
	}
	doc.WriteString(`</batch>`)
	doc.WriteString(strings.Repeat(" ", 512-doc.Len()))
	data := []byte(doc.String())
	b := NewBuilder()
	p := parser{b: b, names: make(map[string]*xname)}
	if err := p.parse(data); err != nil {
		t.Fatal(err)
	}
	text := 0
	for _, n := range b.Tree().Nodes {
		text += len(n.Text)
	}
	if p.chunk.Len() != text {
		t.Errorf("the chunk holds %d bytes, the tree %d bytes of text: the values took more than one chunk", p.chunk.Len(), text)
	}
	if p.chunk.Cap() > len(data) {
		t.Errorf("a %d-byte document kept a %d-byte chunk", len(data), p.chunk.Cap())
	}
}
