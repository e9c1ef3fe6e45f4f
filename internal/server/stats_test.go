package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"xmlest"
	"xmlest/internal/metrics"
)

// series maps "name{k=v,...}" (labels sorted by key) to a sample value.
type series map[string]float64

func seriesKey(name string, labels []string) string {
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+"="+labels[i+1])
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// gatherSeries flattens a gather, failing on a family or series
// emitted twice.
func gatherSeries(t *testing.T, fams metrics.Families) series {
	t.Helper()
	out := series{}
	names := map[string]bool{}
	for _, f := range fams {
		if names[f.Name] {
			t.Errorf("family %s emitted twice", f.Name)
		}
		names[f.Name] = true
		for _, s := range f.Samples {
			k := seriesKey(s.Name, s.Labels)
			if _, dup := out[k]; dup {
				t.Errorf("series %s emitted twice", k)
			}
			out[k] = s.Value
		}
	}
	return out
}

// textSample is one sample line: name, optional {labels}, value. The
// label values the tests emit hold no `",` sequence.
var textSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)

// parseText reads the text encoding back into series and the family
// names of its # TYPE lines, in order.
func parseText(t *testing.T, text string) (series, []string) {
	t.Helper()
	out := series{}
	var names []string
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			names = append(names, strings.Fields(line)[2])
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := textSample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparsable sample line %q", line)
		}
		var labels []string
		if m[2] != "" {
			for _, pair := range strings.Split(m[2], `",`) {
				k, v, ok := strings.Cut(pair, `="`)
				if !ok {
					t.Fatalf("unparsable labels in %q", line)
				}
				labels = append(labels, k, strings.TrimSuffix(v, `"`))
			}
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		out[seriesKey(m[1], labels)] = v
	}
	return out, names
}

func sameSeries(t *testing.T, label string, got, want series) {
	t.Helper()
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: missing %s", label, k)
		} else if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Errorf("%s: %s = %v, want %v", label, k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: extra %s", label, k)
		}
	}
}

// corpusFamilies are emitted by every daemon, read-only ones included.
var corpusFamilies = []string{
	"xqest_shards", "xqest_set_version", "xqest_summary_only_shards", "xqest_corpus_docs",
	"xqest_corpus_nodes", "xqest_corpus_predicates", "xqest_summary_bytes", "xqest_grid_size",
	"xqest_read_only", "xqest_uptime_seconds", "xqest_build_info",
}

// waitVerified polls a server's gather until the accuracy monitor has
// verified at least one estimate.
func waitVerified(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _ := s.Metrics().Gather().Value("xqest_accuracy_verified_total"); v > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("shadow sampling never verified an estimate")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStatsAndMetricsRenderOneGather: on a durable leader, a follower,
// a read-only server over a loaded summary and a shadow-sampling
// server, one gather encoded as /metrics text and as /stats JSON holds
// the same families in the same order with the same series and values,
// no family or series appears twice, and both endpoints serve the same
// family list.
func TestStatsAndMetricsRenderOneGather(t *testing.T) {
	leader, leaderTS, _ := newDurableNode(t, "")
	postJSON(t, leaderTS.URL+"/append", AppendRequest{Documents: []string{dept1, dept2}}).Body.Close()
	follower, followerTS, _ := newDurableNode(t, leaderTS.URL)
	waitReplicated(t, leaderTS.URL, followerTS.URL, 5*time.Second, "gather")
	estimateOver(t, leaderTS.URL)
	estimateOver(t, followerTS.URL)

	db, err := xmlest.Open(strings.NewReader(dept1))
	if err != nil {
		t.Fatal(err)
	}
	db.AddAllTagPredicates()
	est, err := db.NewEstimator(xmlest.Options{GridSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := est.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := xmlest.LoadEstimator(blob)
	if err != nil {
		t.Fatal(err)
	}
	readOnly, err := NewFromEstimator(loaded, Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	readOnlyTS := httptest.NewServer(readOnly.Handler())
	defer readOnlyTS.Close()
	estimateOver(t, readOnlyTS.URL)

	sampled, sampledTS := newTestServer(t, Config{ShadowSample: 1})
	defer sampled.monitor.Close()
	postJSON(t, sampledTS.URL+"/estimate", EstimateRequest{Pattern: "//faculty//TA"}).Body.Close()
	waitVerified(t, sampled)

	for _, c := range []struct {
		name string
		s    *Server
		url  string
		want map[string]float64 // sample -> value, beyond corpusFamilies
	}{
		{"durable leader", leader, leaderTS.URL, map[string]float64{"xqest_read_only": 0, "xqest_corpus_docs": 2}},
		{"follower", follower, followerTS.URL, map[string]float64{"xqest_replica_lag_seq": 0, "xqest_replica_applied_seq": 1}},
		{"read-only", readOnly, readOnlyTS.URL, map[string]float64{"xqest_read_only": 1, "xqest_shards": 1, "xqest_corpus_docs": 1}},
		{"shadow sampling", sampled, sampledTS.URL, map[string]float64{"xqest_accuracy_sample_every": 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fams := c.s.Metrics().Gather()
			want := gatherSeries(t, fams)

			var text bytes.Buffer
			if err := fams.WriteText(&text); err != nil {
				t.Fatal(err)
			}
			fromText, textNames := parseText(t, text.String())
			sameSeries(t, "text", fromText, want)

			b, err := json.Marshal(fams)
			if err != nil {
				t.Fatal(err)
			}
			var decoded metrics.Families
			if err := json.Unmarshal(b, &decoded); err != nil {
				t.Fatal(err)
			}
			sameSeries(t, "JSON", gatherSeries(t, decoded), want)
			var jsonNames []string
			for i, f := range decoded {
				jsonNames = append(jsonNames, f.Name)
				if f.Type != fams[i].Type || f.Help != fams[i].Help {
					t.Errorf("family %s: JSON type/help %q/%q, gather %q/%q", f.Name, f.Type, f.Help, fams[i].Type, fams[i].Help)
				}
			}
			if strings.Join(jsonNames, " ") != strings.Join(textNames, " ") {
				t.Errorf("family order differs:\nJSON %v\ntext %v", jsonNames, textNames)
			}

			for _, name := range corpusFamilies {
				if decoded.Find(name) == nil {
					t.Errorf("family %s missing", name)
				}
			}
			for sample, w := range c.want {
				if v, ok := decoded.Value(sample); !ok || v != w {
					t.Errorf("%s = %v (present %v), want %v", sample, v, ok, w)
				}
			}

			// The endpoints serve the same family list (two gathers, so
			// only values may move between them).
			statsNames := []string{}
			for _, f := range getStats(t, c.url) {
				statsNames = append(statsNames, f.Name)
			}
			resp := mustGet(t, c.url+"/metrics")
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			_, metricsNames := parseText(t, string(body))
			if strings.Join(statsNames, " ") != strings.Join(metricsNames, " ") {
				t.Errorf("/stats and /metrics families differ:\n/stats   %v\n/metrics %v", statsNames, metricsNames)
			}
		})
	}
}

// documentedFamily matches an xqest family (or histogram series) name
// in the docs; a name ending in "_" is a prefix wildcard such as
// `xqest_replica_*` and is skipped.
var documentedFamily = regexp.MustCompile(`\bxqest_[a-z0-9_]+`)

// TestDocumentedFamiliesMatchScrape is the documentation contract: every
// family README.md or DESIGN.md names exists on a live scrape of a
// follower with shadow sampling on (the node that exposes every
// family), and every family on that scrape is named in DESIGN.md.
func TestDocumentedFamiliesMatchScrape(t *testing.T) {
	_, leaderTS, _ := newDurableNode(t, "")
	postJSON(t, leaderTS.URL+"/append", AppendRequest{Documents: []string{dept1, dept2}}).Body.Close()
	follower, followerTS, _ := newSampledNode(t, leaderTS.URL, 1)
	waitReplicated(t, leaderTS.URL, followerTS.URL, 5*time.Second, "contract")
	estimateOver(t, followerTS.URL)
	waitVerified(t, follower)

	resp := mustGet(t, followerTS.URL+"/metrics")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	_, names := parseText(t, string(body))
	scraped := map[string]bool{}
	for _, n := range names {
		scraped[n] = true
	}
	histogram := func(name string) bool {
		return strings.Contains(string(body), "# TYPE "+name+" histogram\n")
	}
	isScraped := func(token string) bool {
		if scraped[token] {
			return true
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(token, suffix); ok && scraped[base] && histogram(base) {
				return true
			}
		}
		return false
	}

	design := ""
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		if doc == "DESIGN.md" {
			design = string(text)
		}
		seen := map[string]bool{}
		for _, token := range documentedFamily.FindAllString(string(text), -1) {
			if strings.HasSuffix(token, "_") || seen[token] {
				continue
			}
			seen[token] = true
			if !isScraped(token) {
				t.Errorf("%s names %s, which the scrape does not have", doc, token)
			}
		}
	}
	for _, n := range names {
		if !regexp.MustCompile(`\b` + n + `\b`).MatchString(design) {
			t.Errorf("scraped family %s is not named in DESIGN.md", n)
		}
	}
	if len(names) < 60 {
		t.Errorf("scrape holds %d families; the follower should expose every family", len(names))
	}
}
