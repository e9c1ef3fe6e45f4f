package xmltree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode/utf8"
)

// ParseOptions is the option set of ParseCollection. It is empty: the
// parser has a single behaviour (strict XML, attributes kept as "@name"
// nodes, namespace declarations dropped). The type stays so that
// callers passing DefaultParseOptions keep compiling.
type ParseOptions struct{}

// DefaultParseOptions is used by Parse and ParseCollection.
var DefaultParseOptions = ParseOptions{}

// Parse reads a single XML document and returns its numbered tree
// (rooted, as always, at the dummy root).
func Parse(r io.Reader) (*Tree, error) {
	return ParseCollection([]io.Reader{r}, DefaultParseOptions)
}

// ParseCollection merges one document per reader into a single mega-tree
// under the dummy root, as Section 3.1 of the paper prescribes, and
// numbers the result.
//
// A reader may hold several top-level elements; each becomes a document.
// The parser accepts exactly what encoding/xml's Decoder.Token accepts
// in strict mode and builds, node for node, the tree of the
// encoding/xml-based reference parser in this package's tests.
// Write-ahead-log recovery depends on this: logs written by versions
// that parsed with encoding/xml must rebuild the trees they acknowledged.
func ParseCollection(readers []io.Reader, _ ParseOptions) (*Tree, error) {
	b := NewBuilder()
	p := parser{b: b, names: make(map[string]*xname)}
	for i, r := range readers {
		data, err := readAll(r)
		if err == nil {
			b.nodes = slices.Grow(b.nodes, nodeBound(data))
			err = p.parse(data)
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: document %d: %w", i, err)
		}
	}
	t := b.finish()
	t.tagIndex = make(map[string][]NodeID, len(p.postings))
	for tag, ids := range p.postings {
		if len(*ids) > 0 {
			t.tagIndex[tag] = *ids
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// ParseString is a convenience wrapper for tests and examples.
func ParseString(doc string) (*Tree, error) {
	return Parse(strings.NewReader(doc))
}

// readAll reads r to the end, in one allocation when r knows its length
// (bytes.Reader, strings.Reader, bytes.Buffer).
func readAll(r io.Reader) ([]byte, error) {
	sized, ok := r.(interface{ Len() int })
	if !ok {
		return io.ReadAll(r)
	}
	var buf bytes.Buffer
	buf.Grow(sized.Len() + bytes.MinRead)
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// nodeBound is a cheap upper bound on the nodes a document adds: every
// element has a start tag ('<' not followed by '/') and every attribute
// an '='. Markup that makes no node only loosens it. No node takes fewer
// than four bytes ("<a/>", `a=""`), which caps the reservation however
// many '<' a comment holds.
func nodeBound(data []byte) int {
	n := bytes.Count(data, []byte("="))
	for i := 0; ; {
		j := bytes.IndexByte(data[i:], '<')
		if j < 0 {
			break
		}
		if i += j + 1; i == len(data) || data[i] != '/' {
			n++
		}
	}
	return min(n, len(data)/4)
}

// xname is an interned XML name. Names are validated and split once per
// distinct spelling; elements and attributes then share the strings and
// the tag postings, which every spelling with the same local name
// shares too.
type xname struct {
	raw   string // as written; end tags must repeat it exactly
	space string // the prefix of "space:local", or ""
	local string // the element tag
	attr  string // "@" + local: the tag of an attribute node

	elemIDs, attrIDs *[]NodeID // the postings of local and attr
}

// openElem is an element whose end tag has not been seen yet.
type openElem struct {
	name   *xname
	nsMark int // len(parser.nsUndo) before the element's declarations
}

type attr struct {
	name  *xname
	value string
}

// nsBinding undoes one namespace declaration when its element closes.
type nsBinding struct {
	prefix, uri string
	bound       bool
}

// parser scans documents from their bytes straight into a Builder. It
// mirrors the strict tokenizer of encoding/xml decision by decision, so
// the two accept the same inputs; the tree-building rules (text runs
// trimmed one by one, attributes as "@name" children, xmlns attributes
// dropped) are those of the reference parser.
type parser struct {
	b     *Builder
	data  []byte
	pos   int
	names map[string]*xname
	open  []openElem
	attrs []attr
	buf   []byte // decoded character data, when it differs from the input

	// postings is the tree's tag index, filled as nodes open (see
	// begin) and handed to the tree instead of indexing the finished
	// node array. Each interned name points at its tags' lists.
	postings map[string]*[]NodeID

	// chunk holds copies of the text runs and attribute values taken so
	// far, so the tree neither pins the input nor costs one allocation
	// per string (see keep).
	chunk strings.Builder

	// ns holds the prefix bindings in scope. It is only consulted for
	// one rule: an attribute whose prefix is bound to the URI "xmlns"
	// is dropped like a declaration, as encoding/xml's name translation
	// makes it one. nil until a document declares a prefix.
	ns     map[string]string
	nsUndo []nsBinding
}

// parse adds the documents in data to the builder.
func (p *parser) parse(data []byte) error {
	p.data, p.pos = data, 0
	defer func() { p.data = nil }() // the tree must not pin the input
	for p.pos < len(data) {
		if data[p.pos] != '<' {
			if err := p.charData(inText, len(data)); err != nil {
				return err
			}
			continue
		}
		p.pos++
		if p.pos == len(data) {
			return p.eof()
		}
		var err error
		switch data[p.pos] {
		case '/':
			p.pos++
			err = p.endTag()
		case '?':
			p.pos++
			err = p.procInst()
		case '!':
			p.pos++
			err = p.bang()
		default:
			err = p.startTag()
		}
		if err != nil {
			return err
		}
	}
	if len(p.open) > 0 {
		return p.eof()
	}
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	line := 1 + bytes.Count(p.data[:min(p.pos, len(p.data))], []byte("\n"))
	return &xml.SyntaxError{Msg: fmt.Sprintf(format, args...), Line: line}
}

func (p *parser) eof() error { return p.errorf("unexpected EOF") }

// next consumes one byte; ok is false at the end of the input.
func (p *parser) next() (c byte, ok bool) {
	if p.pos == len(p.data) {
		return 0, false
	}
	c = p.data[p.pos]
	p.pos++
	return c, true
}

// expect consumes one byte and fails unless it is want.
func (p *parser) expect(want byte, msg string) error {
	c, ok := p.next()
	if !ok {
		return p.eof()
	}
	if c != want {
		return p.errorf("%s", msg)
	}
	return nil
}

func (p *parser) space() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\r', '\n', '\t':
			p.pos++
		default:
			return
		}
	}
}

// rawName consumes the bytes of a name: single-byte name characters and
// every byte of a multi-byte sequence (validity is checked afterwards).
func (p *parser) rawName() []byte {
	data, start := p.data, p.pos
	i := start
	for i < len(data) && nameByte[data[i]] {
		i++
	}
	p.pos = i
	return data[start:i]
}

// name consumes and interns an element or attribute name, rejecting
// invalid names and names with more than one colon; what is a
// "missing" name for the caller's message.
func (p *parser) name(what string) (*xname, error) {
	raw := p.rawName()
	if p.pos == len(p.data) {
		return nil, p.eof()
	}
	if n, ok := p.names[string(raw)]; ok {
		return n, nil
	}
	if len(raw) == 0 {
		return nil, p.errorf("expected %s", what)
	}
	if !validName(raw) {
		return nil, p.errorf("invalid XML name: %s", raw)
	}
	n := &xname{raw: string(raw)}
	n.local = n.raw
	switch bytes.Count(raw, []byte(":")) {
	case 0:
	case 1:
		if space, local, _ := strings.Cut(n.raw, ":"); space != "" && local != "" {
			n.space, n.local = space, local
		}
	default:
		return nil, p.errorf("expected %s", what)
	}
	n.attr = "@" + n.local
	n.elemIDs, n.attrIDs = p.postingsOf(n.local), p.postingsOf(n.attr)
	p.names[n.raw] = n
	return n, nil
}

// chunkSize is the capacity of a text chunk (see keep), unless the rest
// of the document is shorter or the value longer.
const chunkSize = 64 << 10

// keep returns a copy of s, a value decoded from the document before
// p.pos. Copies share chunks: a new one starts only when s does not fit
// in the current one, and is sized to s plus the rest of the document,
// up to chunkSize, so a small document pins no more than its own
// length.
func (p *parser) keep(s []byte) string {
	if len(s) == 0 {
		return ""
	}
	if len(s) > p.chunk.Cap()-p.chunk.Len() {
		p.chunk.Reset()
		p.chunk.Grow(max(min(chunkSize, len(p.data)-p.pos+len(s)), len(s)))
	}
	off := p.chunk.Len()
	p.chunk.Write(s)
	return p.chunk.String()[off:]
}

// postingsOf returns the postings list of tag, creating it empty.
func (p *parser) postingsOf(tag string) *[]NodeID {
	if p.postings == nil {
		p.postings = make(map[string]*[]NodeID)
	}
	ids, ok := p.postings[tag]
	if !ok {
		ids = new([]NodeID)
		p.postings[tag] = ids
	}
	return ids
}

// begin opens a node whose tag's postings are ids. Every node the
// parser opens goes through it, so the postings stay complete.
func (p *parser) begin(tag string, ids *[]NodeID) {
	*ids = append(*ids, p.b.Begin(tag))
}

func (p *parser) startTag() error {
	n, err := p.name("element name after <")
	if err != nil {
		return err
	}
	p.attrs = p.attrs[:0]
	empty := false
	for {
		p.space()
		c, ok := p.next()
		if !ok {
			return p.eof()
		}
		if c == '/' {
			if err := p.expect('>', "expected /> in element"); err != nil {
				return err
			}
			empty = true
			break
		}
		if c == '>' {
			break
		}
		p.pos--
		an, err := p.name("attribute name in element")
		if err != nil {
			return err
		}
		p.space()
		if err := p.expect('=', "attribute name without = in element"); err != nil {
			return err
		}
		p.space()
		q, ok := p.next()
		if !ok {
			return p.eof()
		}
		mode := inQuot
		switch q {
		case '"':
		case '\'':
			mode = inApos
		default:
			return p.errorf("unquoted or missing attribute value in element")
		}
		value, err := p.text(mode, len(p.data))
		if err != nil {
			return err
		}
		if p.pos == len(p.data) {
			return p.eof()
		}
		p.pos++ // the closing quote
		p.attrs = append(p.attrs, attr{an, p.keep(value)})
	}

	// Declarations apply to the whole start tag, wherever they stand.
	mark := len(p.nsUndo)
	for _, a := range p.attrs {
		if a.name.space == "xmlns" {
			p.bind(a.name.local, a.value)
		}
	}
	p.begin(n.local, n.elemIDs)
	for _, a := range p.attrs {
		if p.dropAttr(a.name) {
			continue
		}
		p.begin(a.name.attr, a.name.attrIDs)
		p.b.Text(a.value)
		p.b.End()
	}
	if empty {
		p.unbind(mark)
		p.b.End()
	} else {
		p.open = append(p.open, openElem{name: n, nsMark: mark})
	}
	return nil
}

// dropAttr reports whether an attribute is a namespace declaration (or
// is named like one after prefix translation), which the tree omits.
func (p *parser) dropAttr(n *xname) bool {
	if n.space == "xmlns" || n.local == "xmlns" {
		return true
	}
	// encoding/xml maps the "xml" prefix to its fixed URI before any
	// binding lookup, so only other prefixes can be bound to "xmlns".
	return n.space != "" && n.space != "xml" && p.ns[n.space] == "xmlns"
}

func (p *parser) bind(prefix, uri string) {
	if p.ns == nil {
		p.ns = make(map[string]string)
	}
	old, bound := p.ns[prefix]
	p.nsUndo = append(p.nsUndo, nsBinding{prefix, old, bound})
	p.ns[prefix] = uri
}

func (p *parser) unbind(mark int) {
	for len(p.nsUndo) > mark {
		u := p.nsUndo[len(p.nsUndo)-1]
		p.nsUndo = p.nsUndo[:len(p.nsUndo)-1]
		if u.bound {
			p.ns[u.prefix] = u.uri
		} else {
			delete(p.ns, u.prefix)
		}
	}
}

func (p *parser) endTag() error {
	raw := p.rawName()
	switch {
	case p.pos == len(p.data):
		return p.eof()
	case len(raw) == 0:
		return p.errorf("expected element name after </")
	case len(p.open) == 0:
		return p.errorf("unexpected end element </%s>", raw)
	}
	top := p.open[len(p.open)-1]
	if string(raw) != top.name.raw {
		return p.errorf("element <%s> closed by </%s>", top.name.raw, raw)
	}
	p.space()
	if c, ok := p.next(); !ok {
		return p.eof()
	} else if c != '>' {
		return p.errorf("invalid characters between </%s and >", raw)
	}
	p.open = p.open[:len(p.open)-1]
	p.unbind(top.nsMark)
	p.b.End()
	return nil
}

// procInst skips a processing instruction, applying encoding/xml's
// checks to the version and encoding of an <?xml ...?> declaration.
func (p *parser) procInst() error {
	target := p.rawName()
	if p.pos == len(p.data) {
		return p.eof()
	}
	if len(target) == 0 {
		return p.errorf("expected target name after <?")
	}
	if !validName(target) {
		return p.errorf("invalid XML name: %s", target)
	}
	p.space()
	end := bytes.Index(p.data[p.pos:], []byte("?>"))
	if end < 0 {
		p.pos = len(p.data)
		return p.eof()
	}
	content := p.data[p.pos : p.pos+end]
	p.pos += end + 2
	if string(target) != "xml" {
		return nil
	}
	return xmlDecl(string(content))
}

// xmlDecl applies encoding/xml's checks to an XML declaration's content.
func xmlDecl(content string) error {
	if ver := procInstParam("version", content); ver != "" && ver != "1.0" {
		return fmt.Errorf("xml: unsupported version %q; only version 1.0 is supported", ver)
	}
	if enc := procInstParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return fmt.Errorf("xml: encoding %q declared but Decoder.CharsetReader is nil", enc)
	}
	return nil
}

// procInstParam extracts param="value" (or 'value') from a processing
// instruction with encoding/xml's loose rule: the first "param=" that
// is directly followed by a quote, up to the next such quote.
func procInstParam(param, s string) string {
	param += "="
	i := 0
	var quote byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || k+len(param) >= len(sub) {
			return ""
		}
		i += k + len(param) + 1
		if c := sub[k+len(param)]; c == '\'' || c == '"' {
			quote = c
			break
		}
	}
	if quote == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], quote)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// bang handles markup starting "<!": a comment, a CDATA section or a
// directive such as <!DOCTYPE ...>.
func (p *parser) bang() error {
	c, ok := p.next()
	if !ok {
		return p.eof()
	}
	switch c {
	case '-':
		if err := p.expect('-', "invalid sequence <!- not part of <!--"); err != nil {
			return err
		}
		// The first "--" must end the comment.
		end := bytes.Index(p.data[p.pos:], []byte("--"))
		if end < 0 {
			p.pos = len(p.data)
			return p.eof()
		}
		p.pos += end + 2
		return p.expect('>', `invalid sequence "--" not allowed in comments`)
	case '[':
		for i := 0; i < len("CDATA["); i++ {
			if err := p.expect("CDATA["[i], "invalid <![ sequence"); err != nil {
				return err
			}
		}
		end := bytes.Index(p.data[p.pos:], []byte("]]>"))
		if end < 0 {
			p.pos = len(p.data)
			return p.errorf("unexpected EOF in CDATA section")
		}
		if err := p.charData(inCDATA, p.pos+end); err != nil {
			return err
		}
		p.pos += len("]]>")
		return nil
	}
	return p.directive()
}

// directive skips a directive, following encoding/xml: quoted '<' and
// '>' do not nest, "<!--" starts a comment that runs to "-->", and any
// other '<' opens a level that a '>' closes. The byte after "<!" has
// been consumed and is not interpreted.
func (p *parser) directive() error {
	var quote byte
	depth := 0
	for {
		c, ok := p.next()
		if !ok {
			return p.eof()
		}
		if quote == 0 && c == '>' && depth == 0 {
			return nil
		}
	handle:
		switch {
		case c == quote:
			quote = 0
		case quote != 0:
		case c == '\'' || c == '"':
			quote = c
		case c == '>':
			depth--
		case c == '<':
			for i := 0; i < len("!--"); i++ {
				if c, ok = p.next(); !ok {
					return p.eof()
				}
				if c != "!--"[i] {
					depth++
					goto handle
				}
			}
			end := bytes.Index(p.data[p.pos:], []byte("-->"))
			if end < 0 {
				p.pos = len(p.data)
				return p.eof()
			}
			p.pos += end + len("-->")
		}
	}
}

// charData decodes one run of character data (plain text up to the next
// '<', or a CDATA section's content ending at end) and adds it, trimmed,
// to the open element's text. Each run is trimmed on its own, as the
// encoding/xml parser trimmed each CharData token. Text outside any
// element is checked and dropped.
func (p *parser) charData(mode textMode, end int) error {
	run, err := p.text(mode, end)
	if err != nil || len(p.open) == 0 {
		return err
	}
	if run = bytes.TrimSpace(run); len(run) > 0 {
		p.b.Text(p.keep(run))
	}
	return nil
}

// textMode selects what ends a stretch of character data and which
// bytes are markup inside it.
type textMode int

const (
	inText  textMode = iota // element content: ends at '<'; "]]>" is an error
	inCDATA                 // a CDATA section: no markup, ends at the section end
	inQuot                  // a "-quoted attribute value: '<' is an error
	inApos                  // a '-quoted attribute value
)

// text decodes data[p.pos:end] up to the mode's terminator (left
// unconsumed) and returns it. As encoding/xml does, it expands the five
// predefined entities and numeric character references, rewrites "\r\n"
// and "\r" to "\n", and rejects invalid UTF-8 and characters outside
// the XML Char production. The result aliases the input when nothing
// was rewritten, and the parser's scratch buffer otherwise.
func (p *parser) text(mode textMode, end int) ([]byte, error) {
	data, plain := p.data[:end], &plainByte[mode]
	start := p.pos
	out := p.buf[:0]
	from := -1 // once out is in use: data[from:i] is plain text not yet in out
	i := start
loop:
	for i < len(data) {
		for i < len(data) && plain[data[i]] {
			i++
		}
		if i == len(data) {
			break
		}
		c := data[i]
		switch {
		case c == '\r':
			if from < 0 {
				from = start
			}
			out = append(append(out, data[from:i]...), '\n')
			i++
			if i < len(data) && data[i] == '\n' {
				i++
			}
			from = i
		case c < ' ':
			p.pos = i
			return nil, p.errorf("illegal character code %U", rune(c))
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				p.pos = i
				return nil, p.errorf("invalid UTF-8")
			}
			if !inCharRange(r) {
				p.pos = i
				return nil, p.errorf("illegal character code %U", r)
			}
			i += size
		case c == '&':
			r, size := reference(data[i:])
			if size == 0 || !inCharRange(r) {
				p.pos = i
				return nil, p.errorf("invalid character entity at %q", data[i:min(i+16, len(data))])
			}
			if from < 0 {
				from = start
			}
			out = utf8.AppendRune(append(out, data[from:i]...), r)
			i += size
			from = i
		case c == '<':
			if mode != inText {
				p.pos = i
				return nil, p.errorf("unescaped < inside quoted string")
			}
			break loop
		case c == '>': // only in element content
			if i-start >= 2 && data[i-1] == ']' && data[i-2] == ']' {
				p.pos = i
				return nil, p.errorf("unescaped ]]> not in CDATA section")
			}
			i++
		default: // a quote in an attribute value
			if mode == inQuot && c == '"' || mode == inApos && c == '\'' {
				break loop
			}
			i++
		}
	}
	p.pos = i
	if from < 0 {
		return data[start:i], nil
	}
	p.buf = append(out, data[from:i]...)
	return p.buf, nil
}

// reference decodes the character or entity reference at the start of
// s, which begins with '&'. size is 0 when it is not one of the five
// predefined entities or a complete numeric reference. A numeric
// reference decodes like encoding/xml's string(rune(n)): a surrogate
// becomes U+FFFD. The caller applies the Char range check.
func reference(s []byte) (r rune, size int) {
	if len(s) > 1 && s[1] == '#' {
		i, base := 2, rune(10)
		if len(s) > 2 && s[2] == 'x' {
			i, base = 3, 16
		}
		digits := i
		for ; i < len(s); i++ {
			d := digitVal(s[i])
			if d >= base {
				break
			}
			if r <= utf8.MaxRune {
				r = r*base + d
			}
		}
		if i == digits || i == len(s) || s[i] != ';' || r > utf8.MaxRune {
			return 0, 0
		}
		if 0xD800 <= r && r <= 0xDFFF {
			r = utf8.RuneError
		}
		return r, i + 1
	}
	for _, e := range predefined {
		if len(s) > len(e.name) && string(s[1:1+len(e.name)]) == e.name {
			return e.r, 1 + len(e.name)
		}
	}
	return 0, 0
}

var predefined = []struct {
	name string // with its ';'
	r    rune
}{{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"apos;", '\''}, {"quot;", '"'}}

func digitVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return 16
}

// inCharRange reports whether r is allowed by the Char production of
// XML 1.0.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// validName reports whether s (as consumed by rawName) is an XML name
// by encoding/xml's rules. For ASCII that is a first byte among letters,
// '_' and ':'. Non-ASCII names are judged by encoding/xml itself: its
// Letter and NameChar tables (XML 1.0 Appendix B) are unexported, but
// its Encoder applies the same check to a processing-instruction
// target. Names are interned, so this runs once per distinct name.
func validName(s []byte) bool {
	for _, c := range s {
		if c >= utf8.RuneSelf {
			return xml.NewEncoder(io.Discard).EncodeToken(xml.ProcInst{Target: string(s)}) == nil
		}
	}
	c := s[0]
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':'
}

var (
	// nameByte marks the bytes a name may consist of: ASCII name
	// characters and any byte of a multi-byte UTF-8 sequence.
	nameByte [256]bool

	// plainByte[mode] marks the bytes text() copies without a second
	// look: printable ASCII, tab and newline, minus each mode's markup.
	plainByte [4][256]bool
)

func init() {
	for c := 0; c < 256; c++ {
		b := byte(c)
		nameByte[c] = 'A' <= b && b <= 'Z' || 'a' <= b && b <= 'z' || '0' <= b && b <= '9' ||
			b == '_' || b == ':' || b == '.' || b == '-' || b >= utf8.RuneSelf
		printable := b >= ' ' && b < utf8.RuneSelf || b == '\t' || b == '\n'
		plainByte[inText][c] = printable && b != '<' && b != '&' && b != '>'
		plainByte[inCDATA][c] = printable
		plainByte[inQuot][c] = printable && b != '<' && b != '&' && b != '"' && b != '\''
		plainByte[inApos][c] = plainByte[inQuot][c]
	}
}
