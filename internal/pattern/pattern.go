// Package pattern models the paper's twig queries (Section 2): small
// rooted node-labeled trees whose node labels are predicate references
// and whose edges demand ancestor-descendant (the paper's focus) or
// parent-child (tech-report extension) relationships.
//
// Patterns are written in a small XPath-like syntax:
//
//	//faculty//TA                 a 2-node chain (ancestor-descendant)
//	//department/faculty          parent-child edge
//	//faculty[.//TA][.//RA]       the Fig 2 twig
//	//article//{1990's}           reference to a named catalog predicate
//	//*//author                   * is the TRUE predicate
package pattern

import (
	"fmt"
	"strings"
)

// Axis is the structural relationship between a pattern node and its
// parent pattern node.
type Axis int

const (
	// Descendant requires the matched data node to be a proper
	// descendant of the parent's match ("//" in the syntax).
	Descendant Axis = iota
	// Child requires the matched data node to be a direct child of the
	// parent's match ("/" in the syntax).
	Child
)

func (a Axis) String() string {
	if a == Child {
		return "/"
	}
	return "//"
}

// Node is one node of a twig pattern.
type Node struct {
	// Test is the node's predicate reference: a bare element tag, a
	// braced catalog predicate name, or "*" for TRUE.
	Test string

	// Axis relates this node to its parent pattern node. The root's
	// axis relates it to the (dummy) document root and is always
	// Descendant in practice.
	Axis Axis

	// Children are the node's pattern children in syntax order.
	Children []*Node

	// pred caches PredName for parsed nodes; nodes built as literals
	// resolve their name on every call.
	pred string
}

// PredName resolves the node's test to a catalog predicate name: bare
// tags become "tag=<name>", braced references are used verbatim, and
// "*" names the TRUE predicate.
func (n *Node) PredName() string {
	if n.pred != "" {
		return n.pred
	}
	return predName(n.Test)
}

func predName(test string) string {
	switch {
	case test == "*":
		return "TRUE"
	case strings.HasPrefix(test, "{") && strings.HasSuffix(test, "}"):
		return test[1 : len(test)-1]
	default:
		return "tag=" + test
	}
}

// Pattern is a parsed twig query.
type Pattern struct {
	Root *Node
	src  string
}

// String returns the pattern in its source syntax.
func (p *Pattern) String() string {
	if p.src != "" {
		return p.src
	}
	var b strings.Builder
	writeNode(&b, p.Root, true)
	return b.String()
}

func writeNode(b *strings.Builder, n *Node, root bool) {
	b.WriteString(n.Axis.String())
	b.WriteString(n.Test)
	// All children but the last render as qualifiers; the last child
	// continues the main path, matching how the parser builds chains.
	for i, c := range n.Children {
		if i < len(n.Children)-1 {
			b.WriteString("[.")
			writeNode(b, c, false)
			b.WriteString("]")
		} else {
			writeNode(b, c, false)
		}
	}
}

// Nodes returns all pattern nodes in pre-order.
func (p *Pattern) Nodes() []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(n *Node) {
		out = append(out, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.Root)
	return out
}

// Size returns the number of pattern nodes.
func (p *Pattern) Size() int { return len(p.Nodes()) }

// IsPath reports whether the pattern is a simple path (every node has at
// most one child).
func (p *Pattern) IsPath() bool {
	for _, n := range p.Nodes() {
		if len(n.Children) > 1 {
			return false
		}
	}
	return true
}

// Edges returns all (parent, child) pattern node pairs in pre-order.
func (p *Pattern) Edges() [][2]*Node {
	var out [][2]*Node
	var walk func(*Node)
	walk = func(n *Node) {
		for _, c := range n.Children {
			out = append(out, [2]*Node{n, c})
			walk(c)
		}
	}
	walk(p.Root)
	return out
}

// Parse parses the XPath-like twig syntax.
func Parse(src string) (*Pattern, error) {
	p := &parser{src: src}
	root, err := p.parsePath()
	if err != nil {
		return nil, fmt.Errorf("pattern: %w", err)
	}
	if !p.eof() {
		return nil, fmt.Errorf("pattern: trailing input at offset %d in %q", p.off, src)
	}
	return &Pattern{Root: root, src: src}, nil
}

// MustParse is Parse for statically known patterns.
func MustParse(src string) *Pattern {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	src string
	off int
}

func (p *parser) eof() bool { return p.off >= len(p.src) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.off]
}

// parsePath parses axis-step chains like //a/b[...]//c and returns the
// first step's node (the chain head).
func (p *parser) parsePath() (*Node, error) {
	head, err := p.parseStep()
	if err != nil {
		return nil, err
	}
	cur := head
	for !p.eof() && p.peek() == '/' {
		next, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		cur.Children = append(cur.Children, next)
		cur = next
	}
	return head, nil
}

// parseStep parses one axis + node test + qualifiers.
func (p *parser) parseStep() (*Node, error) {
	axis := Descendant
	switch {
	case strings.HasPrefix(p.src[p.off:], "//"):
		p.off += 2
	case strings.HasPrefix(p.src[p.off:], "/"):
		p.off++
		axis = Child
	default:
		return nil, fmt.Errorf("expected axis at offset %d in %q", p.off, p.src)
	}
	test, err := p.parseTest()
	if err != nil {
		return nil, err
	}
	n := &Node{Test: test, Axis: axis, pred: predName(test)}
	for !p.eof() && p.peek() == '[' {
		p.off++ // consume '['
		if p.peek() == '.' {
			p.off++
		}
		child, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		if p.eof() || p.peek() != ']' {
			return nil, fmt.Errorf("missing ] at offset %d in %q", p.off, p.src)
		}
		p.off++
		n.Children = append(n.Children, child)
	}
	return n, nil
}

func (p *parser) parseTest() (string, error) {
	if p.eof() {
		return "", fmt.Errorf("expected node test at end of %q", p.src)
	}
	if p.peek() == '*' {
		p.off++
		return "*", nil
	}
	if p.peek() == '{' {
		end := strings.IndexByte(p.src[p.off:], '}')
		if end < 0 {
			return "", fmt.Errorf("unterminated { at offset %d in %q", p.off, p.src)
		}
		test := p.src[p.off : p.off+end+1]
		if len(test) == 2 {
			return "", fmt.Errorf("empty {} at offset %d in %q", p.off, p.src)
		}
		p.off += end + 1
		return test, nil
	}
	start := p.off
	for !p.eof() && isNameByte(p.peek()) {
		p.off++
	}
	if p.off == start {
		return "", fmt.Errorf("expected node test at offset %d in %q", p.off, p.src)
	}
	return p.src[start:p.off], nil
}

func isNameByte(c byte) bool {
	return c == '_' || c == '-' || c == '.' || c == '@' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}
