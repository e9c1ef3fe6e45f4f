package xmltree

import (
	"bufio"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// WriteXML serializes the subtree rooted at id as XML. Attribute
// pseudo-nodes ("@name") become attributes of their parent element;
// text content is emitted before child elements. Text and attribute
// values are escaped as XML (xml.EscapeText), so Parse reads back the
// same tree when each node's attributes precede its child elements and
// its text is trimmed, as in every parsed tree. Writing the dummy root
// emits each document child in sequence (a well-formed fragment per
// document).
func WriteXML(w io.Writer, t *Tree, id NodeID) error {
	bw := bufio.NewWriter(w)
	if id == t.Root() {
		for c := t.Nodes[id].FirstChild; c != InvalidNode; c = t.Nodes[c].NextSibling {
			if err := writeElem(bw, t, c, 0); err != nil {
				return err
			}
		}
	} else if err := writeElem(bw, t, id, 0); err != nil {
		return err
	}
	return bw.Flush()
}

func writeElem(w *bufio.Writer, t *Tree, id NodeID, depth int) error {
	n := t.Node(id)
	if strings.HasPrefix(n.Tag, "@") {
		return fmt.Errorf("xmltree: cannot serialize attribute node %q as element", n.Tag)
	}
	indent := strings.Repeat("  ", depth)
	w.WriteString(indent)
	w.WriteByte('<')
	w.WriteString(n.Tag)
	// Attribute children first.
	var kids []NodeID
	for c := n.FirstChild; c != InvalidNode; c = t.Nodes[c].NextSibling {
		cn := t.Node(c)
		if strings.HasPrefix(cn.Tag, "@") {
			w.WriteByte(' ')
			w.WriteString(cn.Tag[1:])
			w.WriteString(`="`)
			if err := xml.EscapeText(w, []byte(cn.Text)); err != nil {
				return err
			}
			w.WriteByte('"')
		} else {
			kids = append(kids, c)
		}
	}
	if len(kids) == 0 && n.Text == "" {
		w.WriteString("/>\n")
		return nil
	}
	w.WriteByte('>')
	if n.Text != "" {
		if err := xml.EscapeText(w, []byte(n.Text)); err != nil {
			return err
		}
	}
	if len(kids) > 0 {
		w.WriteByte('\n')
		for _, c := range kids {
			if err := writeElem(w, t, c, depth+1); err != nil {
				return err
			}
		}
		w.WriteString(indent)
	}
	w.WriteString("</")
	w.WriteString(n.Tag)
	w.WriteString(">\n")
	return nil
}
