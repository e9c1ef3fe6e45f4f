// Command promlint validates a Prometheus text exposition read from
// stdin: every sample family must carry HELP and TYPE headers,
// histogram bucket counts must be monotone non-decreasing and end in a
// +Inf bucket that matches the family's _count, every histogram family
// must expose _sum and _count samples, counter samples must be
// non-negative, and no family may declare HELP or TYPE more than once.
//
// CI usage:
//
//	curl -s http://127.0.0.1:9200/metrics | go run ./scripts/promlint
//
// Exit status 0 on a clean exposition, 1 with one line per problem
// otherwise.
package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

type family struct {
	help, typ int // header counts
	kind      string
	samples   int
	// sawSum / sawCount record that a _sum / _count sample was seen —
	// a histogram family without both is unusable for rate() math.
	sawSum, sawCount bool
}

type bucketState struct {
	prev    float64 // last cumulative bucket count
	last    float64 // +Inf (or final) bucket count
	sawInf  bool
	count   float64
	hasCnt  bool
	ordered bool
}

func baseName(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if b := strings.TrimSuffix(name, suf); b != name {
			return b
		}
	}
	return name
}

func main() {
	problems := lint(os.Stdin)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "promlint:", p)
		}
		os.Exit(1)
	}
	fmt.Println("promlint: ok")
}

// lint reads one exposition and returns a line per problem found, or
// none when it is clean.
func lint(r io.Reader) []string {
	fams := map[string]*family{}
	buckets := map[string]*bucketState{} // keyed by family + label-set sans le
	var problems []string
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				fail("line %d: malformed comment %q", lineNo, line)
				continue
			}
			name := fields[2]
			f := fams[name]
			if f == nil {
				f = &family{}
				fams[name] = f
			}
			switch fields[1] {
			case "HELP":
				f.help++
			case "TYPE":
				f.typ++
				if len(fields) >= 4 {
					f.kind = fields[3]
				}
			}
			continue
		}

		// Sample line: name{labels} value [timestamp]
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			fail("line %d: no value on sample %q", lineNo, line)
			continue
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			fail("line %d: bad value %q", lineNo, valStr)
			continue
		}
		if math.IsNaN(val) {
			fail("line %d: NaN value in %q", lineNo, line)
		}
		name := key
		labels := ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name, labels = key[:i], key[i:]
		}
		base := baseName(name)
		f := fams[base]
		if f == nil && fams[name] != nil {
			f, base = fams[name], name
		}
		if f == nil {
			fail("line %d: sample %q has no HELP/TYPE for %q", lineNo, line, base)
			continue
		}
		f.samples++
		if name == base+"_sum" {
			f.sawSum = true
		}
		if name == base+"_count" {
			f.sawCount = true
		}
		// A counter can only ever move up from zero; a negative sample
		// means the exporter is broken (or the family is mistyped).
		if f.kind == "counter" && val < 0 {
			fail("line %d: negative counter sample %q", lineNo, line)
		}

		if strings.HasSuffix(name, "_bucket") {
			le, rest := extractLE(labels)
			if le == "" {
				fail("line %d: bucket sample without le label: %q", lineNo, line)
				continue
			}
			bk := base + rest
			st := buckets[bk]
			if st == nil {
				st = &bucketState{ordered: true}
				buckets[bk] = st
			}
			if val < st.prev {
				fail("line %d: bucket counts not monotone for %s (%v after %v)", lineNo, bk, val, st.prev)
				st.ordered = false
			}
			st.prev, st.last = val, val
			if le == "+Inf" {
				st.sawInf = true
			}
		}
		if strings.HasSuffix(name, "_count") {
			bk := base + labels
			st := buckets[bk]
			if st == nil {
				st = &bucketState{ordered: true}
				buckets[bk] = st
			}
			st.count, st.hasCnt = val, true
		}
	}
	if err := sc.Err(); err != nil {
		fail("read: %v", err)
	}

	for name, f := range fams {
		if f.help != 1 {
			fail("family %s: HELP emitted %d times, want exactly once", name, f.help)
		}
		if f.typ != 1 {
			fail("family %s: TYPE emitted %d times, want exactly once", name, f.typ)
		}
		if f.samples == 0 {
			fail("family %s: declared but has no samples", name)
		}
		// Every histogram series must carry its _sum and _count: without
		// them rate() and mean math are impossible, and scrapers treat
		// the family as corrupt.
		if f.kind == "histogram" && f.samples > 0 {
			if !f.sawSum {
				fail("family %s: histogram without a _sum sample", name)
			}
			if !f.sawCount {
				fail("family %s: histogram without a _count sample", name)
			}
		}
	}
	for key, st := range buckets {
		if st.prev == 0 && st.last == 0 && !st.sawInf && !st.hasCnt {
			continue
		}
		if !st.sawInf && st.prev > 0 {
			fail("series %s: no +Inf bucket", key)
		}
		if st.sawInf && st.hasCnt && st.last != st.count {
			fail("series %s: +Inf bucket %v != _count %v", key, st.last, st.count)
		}
	}
	return problems
}

// extractLE pulls the le label out of a label set, returning its value
// and the label set with le removed (for grouping buckets of one
// series together).
func extractLE(labels string) (le, rest string) {
	if labels == "" {
		return "", ""
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var kept []string
	for _, part := range splitLabels(inner) {
		if v, ok := strings.CutPrefix(part, "le="); ok {
			le = strings.Trim(v, `"`)
			continue
		}
		kept = append(kept, part)
	}
	if len(kept) == 0 {
		return le, ""
	}
	return le, "{" + strings.Join(kept, ",") + "}"
}

// splitLabels splits a label body on commas outside quoted values.
func splitLabels(s string) []string {
	var parts []string
	var b strings.Builder
	inQuote := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\\' && inQuote && i+1 < len(s):
			b.WriteByte(c)
			i++
			b.WriteByte(s[i])
		case c == '"':
			inQuote = !inQuote
			b.WriteByte(c)
		case c == ',' && !inQuote:
			parts = append(parts, b.String())
			b.Reset()
		default:
			b.WriteByte(c)
		}
	}
	if b.Len() > 0 {
		parts = append(parts, b.String())
	}
	return parts
}
