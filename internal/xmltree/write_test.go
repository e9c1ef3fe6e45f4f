package xmltree

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randomValue draws a string of XML characters (anything a parse can
// return) built to need every kind of escaping.
func randomValue(r *rand.Rand) string {
	pieces := []string{
		"a", "Z", "0", " ", "\t", "\n", "\r", "\r\n", `"`, "'", "&", "<", ">", "]]>", "&amp;", "%q",
		`\t`, "é", " ", " ", "\U0001F600", "�", "x y",
	}
	var sb strings.Builder
	for n := r.Intn(6); n > 0; n-- {
		sb.WriteString(pieces[r.Intn(len(pieces))])
	}
	return sb.String()
}

// randomDocTree builds a tree shaped like a parsed one: attribute
// nodes first among an element's children, element text trimmed.
func randomDocTree(r *rand.Rand) *Tree {
	b := NewBuilder()
	tags := []string{"a", "b", "item", "x-y", "_z"}
	attrs := []string{"k", "id", "v.w"}
	var elem func(depth int)
	elem = func(depth int) {
		b.Begin(tags[r.Intn(len(tags))])
		for n := r.Intn(3); n > 0; n-- {
			b.Attr(attrs[r.Intn(len(attrs))], randomValue(r))
		}
		b.Text(strings.TrimSpace(randomValue(r)))
		for n := r.Intn(4 - depth); n > 0; n-- {
			elem(depth + 1)
		}
		b.End()
	}
	for n := 1 + r.Intn(2); n > 0; n-- {
		elem(0)
	}
	return b.Tree()
}

// TestWriteXMLRoundTrip checks Parse(WriteXML(t)) == t for trees with
// arbitrary attribute and text values: quotes, '&', '<', tabs and
// carriage returns must survive as XML escapes.
func TestWriteXMLRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		want := randomDocTree(rand.New(rand.NewSource(seed)))
		var buf bytes.Buffer
		if err := WriteXML(&buf, want, want.Root()); err != nil {
			t.Fatalf("seed %d: WriteXML: %v", seed, err)
		}
		got, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: Parse(%q): %v", seed, buf.String(), err)
		}
		if got.MaxPos != want.MaxPos || !reflect.DeepEqual(got.Nodes, want.Nodes) {
			t.Fatalf("seed %d: round trip of %q differs\ngot:  %+v\nwant: %+v", seed, buf.String(), got.Nodes, want.Nodes)
		}
	}
}

// TestWriteXMLAttributeFree pins the output format of attribute-free
// trees, which the generated corpora are.
func TestWriteXMLAttributeFree(t *testing.T) {
	b := NewBuilder()
	b.Begin("a")
	b.Text("x & y")
	b.Element("b", "1 < 2")
	b.Element("c", "")
	b.End()
	var buf bytes.Buffer
	if err := WriteXML(&buf, b.Tree(), 0); err != nil {
		t.Fatal(err)
	}
	const want = "<a>x &amp; y\n  <b>1 &lt; 2</b>\n  <c/>\n</a>\n"
	if buf.String() != want {
		t.Errorf("WriteXML = %q, want %q", buf.String(), want)
	}
}
