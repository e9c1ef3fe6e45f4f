package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"xmlest/internal/xmltree"
)

// This file implements a generic random document generator driven by a
// DTD subset — the substitute for the IBM alphaWorks XML Generator the
// paper used (Section 5.2). Supported declarations:
//
//	<!ELEMENT name (#PCDATA)>
//	<!ELEMENT name EMPTY>
//	<!ELEMENT name (child1, (a | b)*, child2?, child3+)>
//
// Content models support sequences (','), choices ('|'), grouping and
// the '?', '*', '+' occurrence operators, which is sufficient for the
// paper's DTD and for realistic recursive schemata.

// DTD is a parsed document type definition.
type DTD struct {
	// Elements maps element names to content models, in declaration
	// order preserved separately for deterministic iteration.
	Elements map[string]*contentModel
	order    []string
}

// contentModel is a node in a content-model expression tree.
type contentModel struct {
	kind     cmKind
	name     string          // kindName
	children []*contentModel // kindSeq, kindChoice
	occur    byte            // 0, '?', '*', '+'
}

type cmKind int

const (
	cmPCDATA cmKind = iota
	cmEmpty
	cmName
	cmSeq
	cmChoice
)

// ParseDTD parses the supported DTD subset.
func ParseDTD(src string) (*DTD, error) {
	d := &DTD{Elements: make(map[string]*contentModel)}
	rest := src
	for {
		start := strings.Index(rest, "<!ELEMENT")
		if start < 0 {
			break
		}
		end := strings.Index(rest[start:], ">")
		if end < 0 {
			return nil, fmt.Errorf("datagen: unterminated <!ELEMENT in DTD")
		}
		decl := rest[start+len("<!ELEMENT") : start+end]
		rest = rest[start+end+1:]
		fields := strings.Fields(decl)
		if len(fields) < 2 {
			return nil, fmt.Errorf("datagen: malformed declaration %q", decl)
		}
		name := fields[0]
		modelSrc := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(decl), name))
		model, err := parseContentModel(modelSrc)
		if err != nil {
			return nil, fmt.Errorf("datagen: element %s: %w", name, err)
		}
		if _, dup := d.Elements[name]; dup {
			return nil, fmt.Errorf("datagen: duplicate element declaration %s", name)
		}
		d.Elements[name] = model
		d.order = append(d.order, name)
	}
	if len(d.Elements) == 0 {
		return nil, fmt.Errorf("datagen: no element declarations found")
	}
	// Every referenced element must be declared.
	for name, m := range d.Elements {
		for _, ref := range m.refs(nil) {
			if _, ok := d.Elements[ref]; !ok {
				return nil, fmt.Errorf("datagen: element %s references undeclared %s", name, ref)
			}
		}
	}
	// Every element must admit a finite document: one whose mandatory
	// content always recurses, like (a) or (b, a), would expand forever.
	depth := d.minDepths()
	for _, name := range d.order {
		if depth[name] >= unterminated {
			return nil, fmt.Errorf("datagen: element %s has no finite expansion (its mandatory content always recurses)", name)
		}
	}
	return d, nil
}

// refs accumulates the element names referenced by the model.
func (m *contentModel) refs(acc []string) []string {
	switch m.kind {
	case cmName:
		acc = append(acc, m.name)
	case cmSeq, cmChoice:
		for _, c := range m.children {
			acc = c.refs(acc)
		}
	}
	return acc
}

// parseContentModel parses "EMPTY", "(#PCDATA)" or a parenthesized
// expression with , | ? * +.
func parseContentModel(src string) (*contentModel, error) {
	src = strings.TrimSpace(src)
	if src == "EMPTY" {
		return &contentModel{kind: cmEmpty}, nil
	}
	p := &cmParser{src: src}
	m, err := p.parseUnit()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if !p.eof() {
		return nil, fmt.Errorf("trailing content-model input at %d in %q", p.off, src)
	}
	return m, nil
}

type cmParser struct {
	src string
	off int
}

func (p *cmParser) eof() bool { return p.off >= len(p.src) }

func (p *cmParser) skipSpace() {
	for !p.eof() && (p.src[p.off] == ' ' || p.src[p.off] == '\t' || p.src[p.off] == '\n' || p.src[p.off] == '\r') {
		p.off++
	}
}

func (p *cmParser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.off]
}

// parseUnit parses a primary (name or parenthesized expression) plus an
// optional occurrence operator.
func (p *cmParser) parseUnit() (*contentModel, error) {
	p.skipSpace()
	var m *contentModel
	switch {
	case p.peek() == '(':
		p.off++
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return nil, fmt.Errorf("missing ) at %d in %q", p.off, p.src)
		}
		p.off++
		m = inner
	default:
		start := p.off
		for !p.eof() && isDTDNameByte(p.src[p.off]) {
			p.off++
		}
		if p.off == start {
			return nil, fmt.Errorf("expected name or ( at %d in %q", p.off, p.src)
		}
		name := p.src[start:p.off]
		if name == "#PCDATA" {
			m = &contentModel{kind: cmPCDATA}
		} else {
			m = &contentModel{kind: cmName, name: name}
		}
	}
	if c := p.peek(); c == '?' || c == '*' || c == '+' {
		p.off++
		// Occurrence applies to a copy so shared sub-models keep their own.
		m = &contentModel{kind: m.kind, name: m.name, children: m.children, occur: c}
	}
	return m, nil
}

// parseExpr parses a sequence or choice at the current grouping level.
func (p *cmParser) parseExpr() (*contentModel, error) {
	first, err := p.parseUnit()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	switch p.peek() {
	case ',', '|':
		sep := p.peek()
		kind := cmSeq
		if sep == '|' {
			kind = cmChoice
		}
		parts := []*contentModel{first}
		for p.peek() == sep {
			p.off++
			next, err := p.parseUnit()
			if err != nil {
				return nil, err
			}
			parts = append(parts, next)
			p.skipSpace()
		}
		if c := p.peek(); c == ',' || c == '|' {
			return nil, fmt.Errorf("mixed , and | without grouping at %d in %q", p.off, p.src)
		}
		return &contentModel{kind: kind, children: parts}, nil
	default:
		return first, nil
	}
}

func isDTDNameByte(c byte) bool {
	return c == '#' || c == '_' || c == '-' || c == '.' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// GenConfig tunes random generation from a DTD.
type GenConfig struct {
	Seed int64

	// Root names the root element; it must be declared in the DTD.
	Root string

	// RepeatMean is the mean extra repetitions for '+' and '*' items
	// (geometric distribution); '*' may produce zero, '+' at least one.
	RepeatMean float64

	// RepeatMeans overrides RepeatMean per repeated element name (for
	// items that are plain element references, e.g. "employee+").
	RepeatMeans map[string]float64

	// OptionalProb is the probability that a '?' item is present.
	OptionalProb float64

	// ChoiceWeights optionally biases '|' choices: for a choice whose
	// alternatives are element names, the weight of each named
	// alternative (default 1).
	ChoiceWeights map[string]float64

	// MaxDepth bounds element nesting; beyond it, recursive choices
	// prefer the shallowest alternative and repetitions stop.
	MaxDepth int

	// MaxNodes bounds the total element count (a safety budget, not an
	// exact target).
	MaxNodes int
}

// Generate builds a random document conforming to the DTD.
func (d *DTD) Generate(cfg GenConfig) (*xmltree.Tree, error) {
	if _, ok := d.Elements[cfg.Root]; !ok {
		return nil, fmt.Errorf("datagen: root element %q not declared", cfg.Root)
	}
	if cfg.RepeatMean <= 0 {
		cfg.RepeatMean = 1
	}
	if cfg.OptionalProb <= 0 {
		cfg.OptionalProb = 0.5
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 16
	}
	if cfg.MaxNodes <= 0 {
		cfg.MaxNodes = 1 << 20
	}
	g := &dtdGen{
		d:        d,
		cfg:      cfg,
		r:        rand.New(rand.NewSource(cfg.Seed)),
		b:        xmltree.NewBuilder(),
		minDepth: d.minDepths(),
	}
	g.element(cfg.Root, 0)
	return g.b.Tree(), nil
}

// unterminated is the minimum depth of an element with no finite
// expansion.
const unterminated = 1 << 20

// minDepths computes, per element, the minimum nesting depth required
// to terminate expansion — used to steer recursive choices when the
// depth budget runs out. Computed by fixpoint iteration; elements with
// no finite expansion stay at unterminated.
func (d *DTD) minDepths() map[string]int {
	depth := make(map[string]int, len(d.Elements))
	for name := range d.Elements {
		depth[name] = unterminated
	}
	for changed := true; changed; {
		changed = false
		for _, name := range d.order {
			v := modelDepth(d.Elements[name], depth) + 1
			if v < depth[name] {
				depth[name] = v
				changed = true
			}
		}
	}
	return depth
}

// modelDepth is the minimum nesting depth needed to complete m given
// each element's minimum depth: an optional item ('?' or '*') needs
// none, a choice its shallowest alternative and a sequence its deepest
// item.
func modelDepth(m *contentModel, depth map[string]int) int {
	if m.occur == '*' || m.occur == '?' {
		return 0 // may be omitted entirely
	}
	switch m.kind {
	case cmName:
		return depth[m.name]
	case cmSeq:
		worst := 0
		for _, c := range m.children {
			worst = max(worst, modelDepth(c, depth))
		}
		return worst
	case cmChoice:
		best := unterminated
		for _, c := range m.children {
			best = min(best, modelDepth(c, depth))
		}
		return best
	}
	return 0 // #PCDATA, EMPTY
}

type dtdGen struct {
	d        *DTD
	cfg      GenConfig
	r        *rand.Rand
	b        *xmltree.Builder
	minDepth map[string]int
	nodes    int
}

// element expands one element. Mandatory structure is always emitted
// even past the node budget (so documents stay DTD-valid); the budget
// throttles repetitions and optional content instead.
func (g *dtdGen) element(name string, depth int) {
	g.nodes++
	g.b.Begin(name)
	m := g.d.Elements[name]
	switch m.kind {
	case cmPCDATA:
		g.b.Text(phrase(g.r, 1+g.r.Intn(3)))
	case cmEmpty:
	default:
		g.model(m, depth+1)
	}
	g.b.End()
}

// model expands one content-model node, honouring occurrence operators.
func (g *dtdGen) model(m *contentModel, depth int) {
	reps := g.occurrences(m, depth)
	for rep := 0; rep < reps; rep++ {
		switch m.kind {
		case cmPCDATA:
			g.b.Text(phrase(g.r, 1+g.r.Intn(3)))
		case cmEmpty:
		case cmName:
			g.element(m.name, depth)
		case cmSeq:
			for _, c := range m.children {
				g.model(c, depth)
			}
		case cmChoice:
			g.model(g.choose(m, depth), depth)
		}
	}
}

// occurrences returns how many times the item expands, honouring its
// occurrence operator and the depth/node budgets.
func (g *dtdGen) occurrences(m *contentModel, depth int) int {
	overBudget := depth >= g.cfg.MaxDepth || g.nodes >= g.cfg.MaxNodes
	switch m.occur {
	case '?':
		if overBudget || g.r.Float64() >= g.cfg.OptionalProb {
			return 0
		}
		return 1
	case '*':
		if overBudget {
			return 0
		}
		return g.geometric(m)
	case '+':
		if overBudget {
			return 1
		}
		return 1 + g.geometric(m)
	default:
		return 1
	}
}

// geometric draws a count with the item's configured mean.
func (g *dtdGen) geometric(m *contentModel) int {
	mean := g.cfg.RepeatMean
	if m.kind == cmName {
		if v, ok := g.cfg.RepeatMeans[m.name]; ok {
			mean = v
		}
	}
	if mean <= 0 {
		return 0
	}
	p := 1 / (1 + mean)
	n := 0
	for g.r.Float64() > p && n < 64 {
		n++
	}
	return n
}

// choose picks a choice alternative: weighted by ChoiceWeights when
// configured, steering to the terminating alternative when the depth
// budget is exhausted.
func (g *dtdGen) choose(m *contentModel, depth int) *contentModel {
	if depth >= g.cfg.MaxDepth || g.nodes >= g.cfg.MaxNodes {
		best := m.children[0]
		bestD := modelDepth(best, g.minDepth)
		for _, c := range m.children[1:] {
			if v := modelDepth(c, g.minDepth); v < bestD {
				best, bestD = c, v
			}
		}
		return best
	}
	total := 0.0
	weights := make([]float64, len(m.children))
	for i, c := range m.children {
		w := 1.0
		if c.kind == cmName {
			if cw, ok := g.cfg.ChoiceWeights[c.name]; ok {
				w = cw
			}
		}
		weights[i] = w
		total += w
	}
	x := g.r.Float64() * total
	for i, w := range weights {
		if x < w {
			return m.children[i]
		}
		x -= w
	}
	return m.children[len(m.children)-1]
}
