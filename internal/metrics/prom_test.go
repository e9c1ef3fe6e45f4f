package metrics

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// parseExposition splits an exposition into sample lines and the set of
// names carrying HELP/TYPE headers.
func parseExposition(t *testing.T, text string) (samples []string, help, typ map[string]int) {
	t.Helper()
	help, typ = map[string]int{}, map[string]int{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			name := strings.Fields(line)[2]
			help[name]++
		case strings.HasPrefix(line, "# TYPE "):
			name := strings.Fields(line)[2]
			typ[name]++
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unknown comment line %q", line)
		default:
			samples = append(samples, line)
		}
	}
	return samples, help, typ
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	e := r.Endpoint("estimate")
	for i := 0; i < 10; i++ {
		e.Begin()
		e.End(time.Millisecond, OK)
	}
	e.Begin()
	e.End(time.Millisecond, Error)

	var buf bytes.Buffer
	if err := r.Gather().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	samples, help, typ := parseExposition(t, text)
	if len(samples) == 0 {
		t.Fatal("no samples in exposition")
	}
	for name, n := range help {
		if n != 1 {
			t.Errorf("HELP for %s emitted %d times, want once", name, n)
		}
		if typ[name] != 1 {
			t.Errorf("TYPE for %s emitted %d times, want once", name, typ[name])
		}
	}
	// Every sample's family must have been declared.
	for _, s := range samples {
		name := s
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if typ[name] == 0 && typ[base] == 0 {
			t.Errorf("sample %q has no TYPE header (name %q, base %q)", s, name, base)
		}
	}
	for _, want := range []string{
		"xqest_http_requests_total{endpoint=\"estimate\"} 11",
		"xqest_http_errors_total{endpoint=\"estimate\"} 1",
		"xqest_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestExpositionLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Register(CollectorFunc(func(e *Expo) {
		e.Gauge("test_gauge", "help", 1, "label", "a\\b\"c\nd")
	}))
	var buf bytes.Buffer
	if err := r.Gather().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := `test_gauge{label="a\\b\"c\nd"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("escaped label missing: want %q in:\n%s", want, buf.String())
	}
}

func TestCollectorRegistrationOrderPreserved(t *testing.T) {
	r := NewRegistry()
	var order []string
	r.Register(CollectorFunc(func(e *Expo) { order = append(order, "a") }))
	r.Register(CollectorFunc(func(e *Expo) { order = append(order, "b") }))
	var buf bytes.Buffer
	if err := r.Gather().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Errorf("collector order = %v, want [a b]", order)
	}
}
