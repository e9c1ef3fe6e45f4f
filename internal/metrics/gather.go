package metrics

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Families is one gather: every family the collectors emitted, in
// emission order. It has two encodings of the same values — WriteText
// (the Prometheus text format, /metrics) and encoding/json (/stats) —
// so the two endpoints cannot disagree.
type Families []Family

// Family is one gathered metric family. Type is "counter", "gauge" or
// "histogram"; a histogram's samples are its `_bucket`, `_sum` and
// `_count` series.
type Family struct {
	Name    string   `json:"name"`
	Type    string   `json:"type"`
	Help    string   `json:"help"`
	Samples []Sample `json:"samples"`
}

// Sample is one series value. Labels alternate key, value in emission
// order. In JSON it is {"name", "labels" (an object), "value"}, with a
// non-finite value spelled as the text format spells it: "+Inf",
// "-Inf" or "NaN".
type Sample struct {
	Name   string
	Labels []string
	Value  float64
}

// WriteText writes the gather in the Prometheus text exposition format
// (version 0.0.4): per family one # HELP and one # TYPE line, then its
// samples as `name{k="v",...} value`.
func (fs Families) WriteText(w io.Writer) error {
	var b []byte
	for _, f := range fs {
		b = append(b, "# HELP "...)
		b = append(b, f.Name...)
		b = append(b, ' ')
		b = append(b, f.Help...)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.Name...)
		b = append(b, ' ')
		b = append(b, f.Type...)
		b = append(b, '\n')
		for _, s := range f.Samples {
			b = append(b, s.Name...)
			if len(s.Labels) > 0 {
				b = append(b, '{')
				for i := 0; i+1 < len(s.Labels); i += 2 {
					if i > 0 {
						b = append(b, ',')
					}
					b = append(b, s.Labels[i]...)
					b = append(b, '=', '"')
					b = appendEscapedLabel(b, s.Labels[i+1])
					b = append(b, '"')
				}
				b = append(b, '}')
			}
			b = append(b, ' ')
			b = strconv.AppendFloat(b, s.Value, 'g', -1, 64)
			b = append(b, '\n')
		}
	}
	_, err := w.Write(b)
	return err
}

// appendEscapedLabel escapes a label value per the exposition format.
func appendEscapedLabel(b []byte, v string) []byte {
	if !strings.ContainsAny(v, "\\\"\n") {
		return append(b, v...)
	}
	for _, r := range v {
		switch r {
		case '\\':
			b = append(b, `\\`...)
		case '"':
			b = append(b, `\"`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	return b
}

// MarshalJSON encodes the sample with its labels as an object in
// emission order.
func (s Sample) MarshalJSON() ([]byte, error) {
	b := append([]byte(`{"name":`), quoteJSON(s.Name)...)
	b = append(b, `,"labels":{`...)
	for i := 0; i+1 < len(s.Labels); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, quoteJSON(s.Labels[i])...)
		b = append(b, ':')
		b = append(b, quoteJSON(s.Labels[i+1])...)
	}
	b = append(b, `},"value":`...)
	if math.IsInf(s.Value, 0) || math.IsNaN(s.Value) {
		b = append(b, '"')
		b = strconv.AppendFloat(b, s.Value, 'g', -1, 64)
		b = append(b, '"')
	} else {
		b = strconv.AppendFloat(b, s.Value, 'g', -1, 64)
	}
	return append(b, '}'), nil
}

func quoteJSON(s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return q
}

// UnmarshalJSON decodes what MarshalJSON writes. JSON objects carry no
// order, so the labels come back sorted by key.
func (s *Sample) UnmarshalJSON(b []byte) error {
	var raw struct {
		Name   string            `json:"name"`
		Labels map[string]string `json:"labels"`
		Value  json.RawMessage   `json:"value"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	v := string(raw.Value)
	if strings.HasPrefix(v, `"`) {
		if err := json.Unmarshal(raw.Value, &v); err != nil {
			return err
		}
	}
	value, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(raw.Labels))
	for k := range raw.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	labels := make([]string, 0, 2*len(keys))
	for _, k := range keys {
		labels = append(labels, k, raw.Labels[k])
	}
	*s = Sample{Name: raw.Name, Labels: labels, Value: value}
	return nil
}

// Find returns the family named name, or nil.
func (fs Families) Find(name string) *Family {
	for i := range fs {
		if fs[i].Name == name {
			return &fs[i]
		}
	}
	return nil
}

// Label returns the value of the sample's label key ("" when absent).
func (s Sample) Label(key string) string {
	for i := 0; i+1 < len(s.Labels); i += 2 {
		if s.Labels[i] == key {
			return s.Labels[i+1]
		}
	}
	return ""
}

// has reports whether the sample carries every key, value pair of
// labels.
func (s Sample) has(labels []string) bool {
	for i := 0; i+1 < len(labels); i += 2 {
		found := false
		for j := 0; j+1 < len(s.Labels); j += 2 {
			if s.Labels[j] == labels[i] && s.Labels[j+1] == labels[i+1] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Value returns the first sample named sample (a family name, or a
// histogram's name_sum / name_count) that carries every given label
// pair, and whether there was one.
func (fs Families) Value(sample string, labels ...string) (float64, bool) {
	for _, f := range fs {
		for _, s := range f.Samples {
			if s.Name == sample && s.has(labels) {
				return s.Value, true
			}
		}
	}
	return 0, false
}

// Quantile estimates the p-quantile (0 <= p <= 1) of the histogram
// family name's series carrying the given labels from its cumulative
// `_bucket` samples, as Prometheus' histogram_quantile does: the rank
// p·count is located in the first non-empty bucket reaching it and
// interpolated linearly inside that bucket's (previous le, le] range,
// the first bucket starting at 0. A rank in the +Inf bucket reads the
// highest finite bound. An empty or absent series reads NaN.
func (fs Families) Quantile(name string, p float64, labels ...string) float64 {
	f := fs.Find(name)
	if f == nil {
		return math.NaN()
	}
	var buckets []Sample
	for _, s := range f.Samples {
		if s.Name == name+"_bucket" && s.has(labels) {
			buckets = append(buckets, s)
		}
	}
	if len(buckets) == 0 {
		return math.NaN()
	}
	rank := p * buckets[len(buckets)-1].Value
	var prevLE, prevCum float64
	for _, b := range buckets {
		le, err := strconv.ParseFloat(b.Label("le"), 64)
		if err != nil {
			return math.NaN()
		}
		if b.Value > prevCum && b.Value >= rank {
			if math.IsInf(le, 1) {
				return prevLE
			}
			return prevLE + (le-prevLE)*(rank-prevCum)/(b.Value-prevCum)
		}
		prevLE, prevCum = le, b.Value
	}
	return math.NaN()
}
