package xmltree

// Builder assembles a Tree programmatically. It is used by the parser,
// by the synthetic data generators, and by tests that construct exact
// example documents (such as the paper's Fig 1 department document).
//
// Usage:
//
//	b := NewBuilder()
//	b.Begin("department")
//	b.Begin("faculty")
//	b.Text("...")
//	b.End()
//	b.End()
//	tree := b.Tree()
//
// The builder automatically inserts the dummy root; Begin at the top
// level starts a new document under it. Numbering (start/end/depth) is
// assigned incrementally as nodes are opened and closed, with one shared
// counter for start and end labels, so a descendant's interval is
// strictly nested inside its ancestors'.
type Builder struct {
	nodes     []Node
	stack     []NodeID      // open nodes, excluding the implicit dummy root slot 0
	lastChild []NodeID      // per open node (parallel to stack+root): last child appended
	text      []pendingText // per open node (parallel to stack+root): its text so far
	counter   int
}

// pendingText is an open element's character data, set as the node's
// Text when the element closes. Text arrives in runs, one per stretch
// between child elements. The first run is kept as given; once a second
// arrives, the runs are appended to a buffer, so an element with n runs
// costs O(total length) rather than O(n × length).
type pendingText struct {
	first string
	more  []byte // first and every later run, once there are two
}

// NewBuilder returns a Builder with the dummy root opened.
func NewBuilder() *Builder {
	b := &Builder{counter: 1}
	b.nodes = append(b.nodes, Node{
		Tag:        "/",
		Start:      0,
		End:        -1, // patched in Tree()
		Depth:      0,
		Parent:     InvalidNode,
		FirstChild: InvalidNode, NextSibling: InvalidNode,
	})
	b.stack = []NodeID{0}
	b.lastChild = []NodeID{InvalidNode}
	b.text = []pendingText{{}}
	return b
}

// Begin opens a new element with the given tag as a child of the
// currently open element and returns its id.
func (b *Builder) Begin(tag string) NodeID {
	parent := b.stack[len(b.stack)-1]
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{
		Tag:        tag,
		Start:      b.counter,
		End:        -1,
		Depth:      b.nodes[parent].Depth + 1,
		Parent:     parent,
		FirstChild: InvalidNode, NextSibling: InvalidNode,
	})
	b.counter++
	if prev := b.lastChild[len(b.lastChild)-1]; prev == InvalidNode {
		b.nodes[parent].FirstChild = id
	} else {
		b.nodes[prev].NextSibling = id
	}
	b.lastChild[len(b.lastChild)-1] = id
	b.stack = append(b.stack, id)
	b.lastChild = append(b.lastChild, InvalidNode)
	b.text = append(b.text, pendingText{})
	return id
}

// Text appends character data to the currently open element. The
// element's Text is the concatenation of every call, in order.
func (b *Builder) Text(s string) {
	if len(b.stack) == 1 || s == "" {
		return // top-level text is ignored
	}
	t := &b.text[len(b.text)-1]
	switch {
	case t.first == "":
		t.first = s
	case len(t.more) == 0:
		t.more = append(append(t.more, t.first...), s...)
	default:
		t.more = append(t.more, s...)
	}
}

// Attr records an attribute of the currently open element as a child
// node tagged "@name" whose text is the attribute value. The paper's
// model has only element nodes; representing attributes as nodes lets
// predicates range over them uniformly.
func (b *Builder) Attr(name, value string) {
	b.Begin("@" + name)
	b.Text(value)
	b.End()
}

// End closes the currently open element. Closing the dummy root is an
// error and panics; the builder owns it.
func (b *Builder) End() {
	if len(b.stack) == 1 {
		panic("xmltree: Builder.End without matching Begin")
	}
	id := b.stack[len(b.stack)-1]
	b.nodes[id].End = b.counter
	b.counter++
	if t := b.text[len(b.text)-1]; len(t.more) > 0 {
		b.nodes[id].Text = string(t.more)
	} else {
		b.nodes[id].Text = t.first
	}
	b.stack = b.stack[:len(b.stack)-1]
	b.lastChild = b.lastChild[:len(b.lastChild)-1]
	b.text = b.text[:len(b.text)-1]
}

// Element emits a complete leaf element with text content.
func (b *Builder) Element(tag, text string) NodeID {
	id := b.Begin(tag)
	if text != "" {
		b.Text(text)
	}
	b.End()
	return id
}

// Depth returns the number of currently open elements, excluding the
// dummy root. It is 0 at the top level.
func (b *Builder) Depth() int { return len(b.stack) - 1 }

// Open reports the id of the innermost open element, or InvalidNode at
// the top level.
func (b *Builder) Open() NodeID {
	if len(b.stack) == 1 {
		return InvalidNode
	}
	return b.stack[len(b.stack)-1]
}

// Tree finalizes and returns the tree. Any elements still open are
// closed. The builder must not be used afterwards.
func (b *Builder) Tree() *Tree {
	t := b.finish()
	t.buildTagIndex()
	return t
}

// finish is Tree without the tag index, for a caller that kept the
// index itself while building.
func (b *Builder) finish() *Tree {
	for len(b.stack) > 1 {
		b.End()
	}
	b.nodes[0].End = b.counter
	b.counter++
	return &Tree{Nodes: b.nodes, MaxPos: b.counter}
}
