// Package stream builds position histograms directly from an XML byte
// stream without materializing the document tree — the ingest path for
// databases whose documents exceed memory. The estimator consumes only
// (start, end, depth, tag, text) events, all of which a single SAX-style
// pass produces with memory bounded by document depth.
//
// Grid construction needs the maximum position label before counts can
// be bucketed, so building is two passes over the input: pass one
// counts nodes (two labels per element or attribute), pass two assigns
// labels with the same deterministic numbering as xmltree and feeds
// each histogram builder. Callers supply an openable source so the
// stream can be read twice.
//
// Unlike xmltree, which reads each document into memory and scans its
// bytes, this package keeps encoding/xml's streaming Decoder: its
// memory must stay bounded by document depth, whatever the input size.
package stream

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"

	"xmlest/internal/histogram"
	"xmlest/internal/predicate"
	"xmlest/internal/xmltree"
)

// Source re-opens the XML input for each pass.
type Source func() (io.ReadCloser, error)

// Event is one fully-numbered element delivered during the streaming
// pass, matching the labels xmltree.Parse would assign.
type Event struct {
	Tag   string
	Text  string
	Start int
	End   int
	Depth int
}

// EventPredicate decides predicate membership from a streamed event
// (tree-based predicates cannot apply: there is no tree). Element-tag
// and content predicates translate directly.
type EventPredicate interface {
	Name() string
	Matches(ev *Event) bool
}

// TagPred matches an element tag.
type TagPred struct{ Tag string }

func (p TagPred) Name() string           { return "tag=" + p.Tag }
func (p TagPred) Matches(ev *Event) bool { return ev.Tag == p.Tag }

// ContentPrefixPred matches a text prefix under an optional tag.
type ContentPrefixPred struct {
	Alias  string
	Tag    string // "" = any tag
	Prefix string
}

func (p ContentPrefixPred) Name() string { return p.Alias }
func (p ContentPrefixPred) Matches(ev *Event) bool {
	if p.Tag != "" && ev.Tag != p.Tag {
		return false
	}
	return strings.HasPrefix(ev.Text, p.Prefix)
}

// FuncPred adapts an arbitrary function.
type FuncPred struct {
	Alias string
	Fn    func(ev *Event) bool
}

func (p FuncPred) Name() string           { return p.Alias }
func (p FuncPred) Matches(ev *Event) bool { return p.Fn(ev) }

// Result is the output of a streaming build.
type Result struct {
	// Hists maps predicate names to their position histograms; the
	// TRUE histogram is under "TRUE".
	Hists map[string]*histogram.Position
	// Grid is the shared grid.
	Grid histogram.Grid
	// Nodes is the node count: elements and attributes, excluding the
	// dummy root (xmltree.Tree.NumNodes of the same document).
	Nodes int
	// MaxDepth is the depth of the deepest node seen.
	MaxDepth int
	// MayOverlap maps predicate names to whether two satisfying nodes
	// were seen in an ancestor-descendant relationship (Definition 2
	// fails). Detected during the streaming pass: nodes are emitted
	// in end-label order, so a satisfying node contains an earlier-
	// emitted satisfying node exactly when its start label precedes the
	// largest start label emitted so far for the predicate.
	MayOverlap map[string]bool
}

// Build scans the source twice and returns the histograms of the given
// predicates plus the TRUE histogram, on a uniform gridSize×gridSize
// grid. Memory use is O(depth + g² per predicate); the document tree is
// never materialized.
func Build(src Source, gridSize int, preds []EventPredicate) (*Result, error) {
	// Pass 1: count nodes to fix the position space.
	nodes, _, err := countNodes(src, false)
	if err != nil {
		return nil, err
	}
	return buildCounted(src, gridSize, preds, nodes)
}

// BuildAllTags scans the source twice and returns one histogram per
// distinct tag (attribute tags "@name" included) plus TRUE — the
// streaming analogue of the all-tags predicate vocabulary
// (predicate.Spec.AllTags). The tag set is discovered during pass one
// alongside the node count, so the input is still read exactly twice.
func BuildAllTags(src Source, gridSize int) (*Result, error) {
	nodes, tags, err := countNodes(src, true)
	if err != nil {
		return nil, err
	}
	preds := make([]EventPredicate, len(tags))
	for i, tag := range tags {
		preds[i] = TagPred{Tag: tag}
	}
	return buildCounted(src, gridSize, preds, nodes)
}

// buildCounted is pass two plus setup, with the node count already
// known.
func buildCounted(src Source, gridSize int, preds []EventPredicate, nodes int) (*Result, error) {
	for _, p := range preds {
		if p.Name() == "TRUE" {
			return nil, fmt.Errorf("stream: the TRUE histogram is built automatically")
		}
	}
	// Positions mirror xmltree.Builder: dummy root takes label 0 and
	// the final label, each element or attribute takes two labels.
	maxPos := 2*nodes + 2
	grid, err := histogram.NewUniformGrid(gridSize, maxPos)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	res := &Result{
		Hists:      make(map[string]*histogram.Position, len(preds)+1),
		Grid:       grid,
		MayOverlap: make(map[string]bool, len(preds)+1),
	}
	res.MayOverlap["TRUE"] = true
	for _, p := range preds {
		if _, dup := res.Hists[p.Name()]; dup {
			return nil, fmt.Errorf("stream: duplicate predicate %q", p.Name())
		}
		res.Hists[p.Name()] = nil // built after the scan
	}
	trueAcc := histogram.NewAccumulator(grid.Size())
	accs := make([]*histogram.Accumulator, len(preds))
	for k := range accs {
		accs[k] = histogram.NewAccumulator(grid.Size())
	}

	// Pass 2: number nodes and feed the histograms. maxStart tracks,
	// per predicate, the largest start label among emitted matches: a
	// later-emitted match starting before it must contain one of them
	// (intervals in a tree never partially overlap), which is exactly
	// the overlap property.
	maxStart := make([]int, len(preds))
	for k := range maxStart {
		maxStart[k] = -1
	}
	err = scan(src, func(ev *Event) {
		res.Nodes++
		if ev.Depth > res.MaxDepth {
			res.MaxDepth = ev.Depth
		}
		i, j := grid.Bucket(ev.Start), grid.Bucket(ev.End)
		trueAcc.Add(i, j, 1)
		for k, p := range preds {
			if p.Matches(ev) {
				accs[k].Add(i, j, 1)
				if ev.Start < maxStart[k] {
					res.MayOverlap[p.Name()] = true
				} else {
					maxStart[k] = ev.Start
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	res.Hists["TRUE"] = trueAcc.Position(grid)
	for k, p := range preds {
		res.Hists[p.Name()] = accs[k].Position(grid)
	}
	return res, nil
}

// countNodes is pass one: the node count (elements and kept
// attributes), plus — when collectTags is set — the distinct tags in
// sorted order (the all-tags vocabulary discovery).
func countNodes(src Source, collectTags bool) (int, []string, error) {
	r, err := src()
	if err != nil {
		return 0, nil, err
	}
	defer r.Close()
	dec := xml.NewDecoder(r)
	n := 0
	var seen map[string]struct{}
	if collectTags {
		seen = make(map[string]struct{})
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, nil, fmt.Errorf("stream: pass 1: %w", err)
		}
		el, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		n++
		if collectTags {
			seen[el.Name.Local] = struct{}{}
		}
		for _, a := range el.Attr {
			if keepAttr(a) {
				n++
				if collectTags {
					seen["@"+a.Name.Local] = struct{}{}
				}
			}
		}
	}
	if !collectTags {
		return n, nil, nil
	}
	tags := make([]string, 0, len(seen))
	for tag := range seen {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	return n, tags, nil
}

// keepAttr is xmltree's rule for attributes: each becomes an "@name"
// node, except namespace declarations (and attributes whose prefix the
// decoder translated to the "xmlns" URI).
func keepAttr(a xml.Attr) bool {
	return a.Name.Space != "xmlns" && a.Name.Local != "xmlns"
}

// scan is pass two: it assigns (start, end) labels with one shared
// counter and emits one event per node at its close, when its text is
// complete — exactly the nodes, labels and text xmltree.Parse gives:
// attributes are "@name" nodes numbered right after their element's
// start, and each text run is trimmed on its own before the runs are
// joined. Memory is bounded by depth.
func scan(src Source, emit func(*Event)) error {
	r, err := src()
	if err != nil {
		return err
	}
	defer r.Close()
	dec := xml.NewDecoder(r)

	type open struct {
		tag   string
		text  strings.Builder
		start int
	}
	var stack []*open
	counter := 1 // label 0 belongs to the implicit dummy root
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("stream: pass 2: %w", err)
		}
		switch el := tok.(type) {
		case xml.StartElement:
			stack = append(stack, &open{tag: el.Name.Local, start: counter})
			counter++
			for _, a := range el.Attr {
				if !keepAttr(a) {
					continue
				}
				emit(&Event{Tag: "@" + a.Name.Local, Text: a.Value, Start: counter, End: counter + 1, Depth: len(stack) + 1})
				counter += 2
			}
		case xml.EndElement:
			if len(stack) == 0 {
				return fmt.Errorf("stream: unbalanced end element </%s>", el.Name.Local)
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			ev := Event{
				Tag:   top.tag,
				Text:  top.text.String(),
				Start: top.start,
				End:   counter,
				Depth: len(stack) + 1,
			}
			counter++
			emit(&ev)
		case xml.CharData:
			if len(stack) > 0 {
				stack[len(stack)-1].text.Write(bytes.TrimSpace(el))
			}
		}
	}
	if len(stack) != 0 {
		return fmt.Errorf("stream: %d element(s) left open at EOF", len(stack))
	}
	return nil
}

// VerifyAgainstTree is a test helper: it checks that a streamed
// histogram matches the histogram built from the materialized tree for
// a tag predicate. Exposed so integration tests outside the package can
// reuse it.
func VerifyAgainstTree(t *xmltree.Tree, res *Result, tag string) error {
	cat := predicate.NewCatalog(t)
	entry := cat.Add(predicate.Tag{Value: tag})
	want := histogram.BuildPosition(t, entry.Nodes, res.Grid)
	got, ok := res.Hists["tag="+tag]
	if !ok {
		return fmt.Errorf("stream: no histogram for tag=%s", tag)
	}
	g := res.Grid.Size()
	for i := 0; i < g; i++ {
		for j := i; j < g; j++ {
			if got.Count(i, j) != want.Count(i, j) {
				return fmt.Errorf("stream: tag=%s cell (%d,%d): stream %v, tree %v",
					tag, i, j, got.Count(i, j), want.Count(i, j))
			}
		}
	}
	return nil
}
