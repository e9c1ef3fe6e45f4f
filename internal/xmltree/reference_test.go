package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// parseReference is an encoding/xml-based parser, the specification of
// ParseCollection: for every input, ParseCollection must fail exactly
// when this does and otherwise build the same tree. Earlier versions
// parsed with this code, and write-ahead-log recovery re-parses the logs
// they wrote, so any difference would break bit-identical recovery.
func parseReference(readers []io.Reader) (*Tree, error) {
	b := NewBuilder()
	for i, r := range readers {
		if err := referenceInto(b, r); err != nil {
			return nil, fmt.Errorf("xmltree: document %d: %w", i, err)
		}
	}
	t := b.Tree()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func referenceInto(b *Builder, r io.Reader) error {
	dec := xml.NewDecoder(r) // Strict is the default
	depthAtEntry := b.Depth()
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		switch el := tok.(type) {
		case xml.StartElement:
			b.Begin(el.Name.Local)
			for _, a := range el.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				b.Attr(a.Name.Local, a.Value)
			}
		case xml.EndElement:
			if b.Depth() == depthAtEntry {
				return fmt.Errorf("unexpected end element </%s>", el.Name.Local)
			}
			b.End()
		case xml.CharData:
			if s := strings.TrimSpace(string(el)); s != "" {
				b.Text(s)
			}
		}
	}
	if b.Depth() > depthAtEntry {
		return fmt.Errorf("unexpected EOF: %d element(s) left open", b.Depth()-depthAtEntry)
	}
	return nil
}

// parseSeeds covers each construct the scanner must treat as
// encoding/xml does. A seed's second part, when present, is a second
// document of the same ParseCollection call.
var parseSeeds = [][2]string{
	// Names: ASCII rules, encoding/xml's Unicode Letter/NameChar tables,
	// the prefix split and the one-colon limit.
	{`<a/>`}, {`<_a.b-c9/>`}, {`<1a/>`}, {`<.a/>`}, {`<-a/>`},
	{"<é/>"}, {"<aé/>"}, {"<a·/>"}, {"<·a/>"}, {"<a\u0300/>"}, {"<\u0300a/>"},
	{"<\u4e00/>"}, {"<\u3007/>"}, {"<a\u00a0/>"}, {"<a\xff/>"}, {"<a\xc3/>"},
	{`<p:a p:x="1"/>`}, {`<a:b:c/>`}, {`<a x:y:z="1"/>`}, {`<:a/>`}, {`<a:/>`},
	{`<a :x="1" x:="2"/>`}, {`<xmlns/>`},
	// End tags match raw names.
	{`<a:b></a:b>`}, {`<a:b></c:b>`}, {`<a:b></b>`}, {`<a></a >`}, {`<a></ a>`},
	{`<a></a x>`}, {`<a></A>`},
	// Attribute values: quoting, '<', references, whitespace.
	{`<a x='1' y="2"/>`}, {`<a x="<"/>`}, {`<a x=1/>`}, {`<a x/>`}, {`<a x = "1" />`},
	{`<a x="1"y="2"/>`}, {`<a x="a>b"/>`}, {`<a x="'" y='"'/>`}, {`<a x="&quot;&apos;&lt;"/>`},
	{"<a x=\"l1\r\nl2\rl3\tz\n\"/>"}, {`<a x="1" x="2"/>`}, {`<a x=""/>`}, {`<a x="  "/>`},
	{`<a x="]]>"/>`}, {`<a x="&bogus;"/>`}, {"<a x=\"\x01\"/>"}, {`<a/ >`}, {`<a / >`},
	// Entities and character references, with encoding/xml's quirks.
	{`<a>&lt;&gt;&amp;&apos;&quot;</a>`}, {`<a>&#65;&#x42;&#X43;</a>`}, {`<a>&#xD800;</a>`},
	{`<a>&#xDFFF;x</a>`}, {`<a>&#0;</a>`}, {`<a>&#x110000;</a>`}, {`<a>&#x10FFFF;</a>`},
	{`<a>&#xFFFE;</a>`}, {`<a>&nbsp;</a>`}, {`<a>&amp</a>`}, {`<a>&#;</a>`}, {`<a>&#x;</a>`},
	{`<a>&#00000000000000000000065;</a>`}, {`<a>&#99999999999999999999999;</a>`},
	{`<a>& b</a>`}, {`<a>&#13;&#10;&#9;</a>`}, {`<a>&#x20; x &#x20;</a>`}, {`<a>&LT;</a>`}, {`<a>&`},
	// Line ends and characters.
	{"<a>x\r\ny\rz</a>"}, {"<a>\r\r\n\r</a>"}, {"<a>\xff</a>"}, {"<a>\xc3</a>"}, {"<a>é ü</a>"},
	{"<a>\xed\xa0\x80</a>"}, {"<a>\xef\xbf\xbe</a>"}, {"<a>\x01</a>"}, {"<a>\x00</a>"},
	{"\xef\xbb\xbf<a/>"}, {"<a>\u00a0x\u2028</a>"}, {"<a>\xc3&#xA9;</a>"}, {"<a>\t</a>"},
	// "]]>" in text.
	{`<a>]]></a>`}, {`<a>]]&gt;</a>`}, {`<a>]&#93;></a>`}, {`<a>]]]></a>`}, {`<a>] ]></a>`}, {`]]><a/>`},
	// Comments.
	{`<a><!-- x --></a>`}, {`<a><!-- a -- b --></a>`}, {`<!----><a/>`}, {`<!---><a/>`},
	{`<a><!--- x ---></a>`}, {`<!-x--><a/>`}, {`<a>x<!--c-->y</a>`}, {`<!--`}, {`<!--x--`},
	// CDATA sections.
	{`<a><![CDATA[ <b>&amp; ]]]></a>`}, {`<a><![CDATA[x]]>y<![CDATA[]]>z</a>`},
	{`<a><![CDATA[unterminated</a>`}, {`<a><![CDATX[x]]></a>`}, {`<![CDATA[top]]><a/>`},
	{"<a><![CDATA[\r\n]]></a>"}, {"<a><![CDATA[\xff]]></a>"}, {"<a><![CDATA[\x01]]></a>"},
	{`<a><![CDATA[ padded ]]></a>`},
	// Directives, DOCTYPE with a nested internal subset.
	{`<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> <!ENTITY e "x>y"> <!-- c > --> ]><a/>`},
	{`<!DOCTYPE a [<!ELEMENT a ANY>]]><a/>`}, {`<!><a/>`}, {`<!>><a/>`}, {`<!DOCTYPE a '>' ><a/>`},
	{`<!x<>><a/>`}, {`<!x<!a>><a/>`}, {`<!x<!-a>><a/>`}, {`<!DOCTYPE a [ <!--unterminated ]><a/>`},
	{`<!DOCTYPE a [ <!-- ' --> ]><a/>`}, {`<!DOCTYPE a "unterminated><a/>`}, {`<!"><a/>`}, {`<!`},
	// Processing instructions and the XML declaration.
	{`<?xml version="1.0"?><a/>`}, {`<?xml version="1.1"?><a/>`}, {`<?xml version='1.0' encoding='UTF-8'?><a/>`},
	{`<?xml encoding="latin1"?><a/>`}, {`<?xml encoding="Utf-8"?><a/>`}, {`<?xml version = "1.1"?><a/>`},
	{`<?xml version="1.1?><a/>`}, {`<?xml versionversion="1.1"?><a/>`}, {`<?xml version=x version="2"?><a/>`},
	{`<?xml-stylesheet href="x"?><a/>`}, {`<?XML version="9"?><a/>`}, {`<?xml version="1.0"`},
	{`<??><a/>`}, {`<?1x?><a/>`}, {`<a><?pi data?>x</a>`}, {`<?xml?><a/>`}, {"<?é?><a/>"}, {"<?·?><a/>"},
	{`<a><?xml version="2"?></a>`},
	// Namespace declarations and the xmlns attribute-skip rule.
	{`<a xmlns="u" xmlns:p="v" p:x="1" x="2"/>`}, {`<a xmlns:p="xmlns" p:x="1" q="2"/>`},
	{`<a p:x="1" xmlns:p="xmlns"/>`}, {`<a xmlns:p="xmlns"><b p:x="1"/></a><c p:x="2"/>`},
	{`<a xmlns:xml="xmlns" xml:x="1"/>`}, {`<a foo:xmlns="1" xml:xmlns="2"/>`},
	{`<a xmlns:p="xml&#110;s" p:y="1"/>`}, {`<a xmlns:p="xmlns"><b xmlns:p="u" p:x="1"/><c p:x="2"/></a>`},
	{`<a xmlns:p="xmlns" xmlns:p="u" p:x="1"/>`}, {`<a xmlns:xmlns="xmlns" xmlns:x="1"/>`}, {`<a xmlns:="1"/>`},
	// Structure and mixed content.
	{`<doc><a id="1">x<b>y</b>z</a><a>w</a></doc>`}, {`<a> x <b>y</b> z </a>`}, {`<a>x <b/> y</a>`},
	{`<a><b></a></b>`}, {`<a>`}, {`</a>`}, {`<a/></a>`}, {`<a></a></a>`}, {`text<a/>text`},
	{``}, {`<`}, {`<a`}, {`<a x`}, {`<a x=`}, {`<a x="1`}, {`<a/`}, {`</`}, {`</a`}, {`<a></a`},
	{`< a/>`}, {`<a/><b/>`}, {"  \n"}, {`<a><b><c/></b><b/></a>`},
	// Several documents in one call.
	{`<a><b/></a>`, `<c x="1"/>`}, {`<a>`, `</a>`}, {`<a xmlns:p="xmlns"/>`, `<b p:x="1"/>`},
	{`<a/>`, ``}, {`<r>t</r>`, `<?xml version="1.1"?>`}, {`<a>1</a><a>2</a>`, `<a>3</a>`},
	// Tag postings: spellings sharing a local name share one list, an
	// element and an attribute of one name keep two, and a name seen
	// only as an element has no attribute list.
	{`<r xmlns:a="u" xmlns:b="v"><a:x/><b:x a:x="1"/><x/></r>`}, {`<x x="1"><x/></x>`},
	{`<a:x/>`, `<b:x b:x="2"/>`}, {`<only><only/></only>`},
}

func FuzzParseMatchesReference(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add([]byte(s[0]), []byte(s[1]))
	}
	f.Fuzz(func(t *testing.T, first, second []byte) {
		docs := []string{string(first)}
		if len(second) > 0 {
			docs = append(docs, string(second))
		}
		got, gotErr := ParseCollection(readerSlice(docs...), DefaultParseOptions)
		want, wantErr := parseReference(readerSlice(docs...))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: scanner error %v, reference error %v", docs, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.MaxPos != want.MaxPos || !reflect.DeepEqual(got.Nodes, want.Nodes) {
			t.Fatalf("%q: trees differ\nscanner:   %+v\nreference: %+v", docs, got.Nodes, want.Nodes)
		}
		// The parser keeps the tag postings as it goes; they must be
		// the index built from the finished nodes.
		rebuilt := &Tree{Nodes: got.Nodes, MaxPos: got.MaxPos}
		rebuilt.buildTagIndex()
		if !slices.Equal(got.Tags(), rebuilt.Tags()) {
			t.Fatalf("%q: tags %q, rebuilt index has %q", docs, got.Tags(), rebuilt.Tags())
		}
		if len(got.tagIndex) != len(rebuilt.tagIndex) {
			t.Fatalf("%q: %d indexed tags, rebuilt index has %d", docs, len(got.tagIndex), len(rebuilt.tagIndex))
		}
		for tag, ids := range rebuilt.tagIndex {
			if !slices.Equal(got.NodesWithTag(tag), ids) {
				t.Fatalf("%q: NodesWithTag(%q) = %v, rebuilt index has %v", docs, tag, got.NodesWithTag(tag), ids)
			}
		}
	})
}
