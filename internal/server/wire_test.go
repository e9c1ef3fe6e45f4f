package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// reusedRequest is one in-process request served repeatedly: the
// request, its body reader and the response writer are allocated once,
// so AllocsPerRun counts the handler's allocations only.
type reusedRequest struct {
	req    *http.Request
	body   []byte
	rd     bodyReader
	header http.Header
	status int
	out    bytes.Buffer
}

type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

func newReusedRequest(path string, body []byte) *reusedRequest {
	rr := &reusedRequest{body: body, header: http.Header{}}
	rr.req = httptest.NewRequest(http.MethodPost, path, nil)
	rr.req.Header.Set("Content-Type", "application/json")
	return rr
}

func (rr *reusedRequest) serve(h http.Handler) {
	rr.rd.Reset(rr.body)
	rr.req.Body = &rr.rd
	clear(rr.header)
	rr.status = 0
	rr.out.Reset()
	h.ServeHTTP(rr, rr.req)
}

func (rr *reusedRequest) Header() http.Header { return rr.header }

func (rr *reusedRequest) WriteHeader(code int) {
	if rr.status == 0 {
		rr.status = code
	}
}

func (rr *reusedRequest) Write(p []byte) (int, error) {
	rr.WriteHeader(http.StatusOK)
	return rr.out.Write(p)
}

// TestEstimateHandlerAllocs pins the allocations of one unsampled
// /estimate request through Handler().ServeHTTP: the request ID and
// its header slice, the body limit, the status recorder, two response
// header slices and the Content-Length text, plus one string per
// pattern scanned out of the pooled body.
func TestEstimateHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool entries")
	}
	// A stride no test reaches: the tracer is on, but never samples.
	s, _ := newTestServer(t, Config{TraceSample: 1 << 30})
	batch := make([]string, 16)
	for i := range batch {
		batch[i] = []string{"//faculty//TA", "//department//faculty", "//department//staff", "//faculty//name"}[i%4]
	}
	batchBody, _ := json.Marshal(EstimateRequest{Patterns: batch})
	for _, tc := range []struct {
		name string
		body []byte
		max  float64
	}{
		{"single", []byte(`{"pattern":"//faculty//TA"}`), 8},
		{"batch16", batchBody, 8 + 15},
	} {
		rr := newReusedRequest("/estimate", tc.body)
		allocs := testing.AllocsPerRun(200, func() {
			rr.serve(s.Handler())
			if rr.status != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.name, rr.status, rr.out.Bytes())
			}
		})
		if allocs > tc.max {
			t.Errorf("%s: %.1f allocs per request, want <= %.0f", tc.name, allocs, tc.max)
		}
	}
}

// TestTrailingDataRejected: a JSON body must end after its object
// (whitespace aside) on every JSON endpoint, on the scanner's path and
// on encoding/json's alike.
func TestTrailingDataRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/estimate", `{"pattern":"//faculty//TA"}{"pattern":"//department"}`, http.StatusBadRequest},
		{"/estimate", `{"pattern":"//faculty//TA"} garbage`, http.StatusBadRequest},
		{"/estimate", `{"pattern":"\/\/faculty\/\/TA"} }`, http.StatusBadRequest},
		{"/estimate", `{"pattern":"//faculty//TA"}` + " \r\n\t", http.StatusOK},
		{"/append", `{"documents":["<department/>"]}{"documents":["<department/>"]}`, http.StatusBadRequest},
		{"/append", `{"documents":["<department/>"]} garbage`, http.StatusBadRequest},
		{"/append", `{"documents":["<department/>"]}` + "\n", http.StatusOK},
		{"/compact", `{"max_shards":1} trailing`, http.StatusBadRequest},
		{"/compact", `{"max_shards":1}{}`, http.StatusBadRequest},
		{"/compact", `{"max_shards":1}` + "\n", http.StatusOK},
		{"/compact", ``, http.StatusOK},
	} {
		if got, body := post(tc.path, tc.body); got != tc.want {
			t.Errorf("POST %s %q: HTTP %d, want %d: %s", tc.path, tc.body, got, tc.want, body)
		}
	}
}

// TestEstimateBodyLimit: the body is read whole, so a valid object
// followed by more than MaxBodyBytes of padding is a 413, not an
// estimate of the object.
func TestEstimateBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1024})
	body := `{"pattern":"//faculty//TA"}` + strings.Repeat(" ", 2048)
	resp, err := http.Post(ts.URL+"/estimate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("HTTP %d, want 413", resp.StatusCode)
	}
}

// TestEstimateRequestFallback: bodies the scanner leaves to
// encoding/json (escapes, duplicate and case-folded keys) answer
// exactly like their plain equivalent.
func TestEstimateRequestFallback(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	answer := func(body string) string {
		rr := newReusedRequest("/estimate", []byte(body))
		rr.serve(s.Handler())
		if rr.status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, rr.status, rr.out.Bytes())
		}
		var resp EstimateResponse
		if err := json.Unmarshal(rr.out.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		for i := range resp.Results {
			resp.Results[i].ElapsedNS = 0 // wall-clock noise, not payload
		}
		out, _ := json.Marshal(resp)
		return string(out)
	}
	want := answer(`{"pattern":"//faculty//TA"}`)
	for _, body := range []string{
		`{"pattern":"\/\/faculty\/\/TA"}`,
		`{"pattern":"\u002f/faculty//TA"}`,
		`{"PATTERN":"//faculty//TA"}`,
		`{"pattern":"//department","pattern":"//faculty//TA"}`,
		`{"patterns":null,"pattern":"//faculty//TA"}`,
	} {
		if got := answer(body); got != want {
			t.Errorf("%s answered %s, want %s", body, got, want)
		}
	}
}

// TestEstimateNullPatternNotReused: a null in "patterns" is the empty
// pattern (a 400), never the pattern an earlier request left in the
// pooled request's slot.
func TestEstimateNullPatternNotReused(t *testing.T) {
	// One P hands the earlier request's scratch to the next one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, _ := newTestServer(t, Config{})
	newReusedRequest("/estimate", []byte(`{"patterns":["//faculty//TA"]}`)).serve(s.Handler())
	rr := newReusedRequest("/estimate", []byte(`{"patterns":[null]}`))
	rr.serve(s.Handler())
	if rr.status != http.StatusBadRequest {
		t.Errorf(`{"patterns":[null]}: status %d, want 400: %s`, rr.status, rr.out.Bytes())
	}
}

// TestEstimatePoolReleasesLargeRequests: one oversized batch, even a
// rejected one, must not stay reachable through the request pool once
// small requests have reused it.
func TestEstimatePoolReleasesLargeRequests(t *testing.T) {
	// One P makes the pool hand the big request's scratch straight back
	// to the next request, as it would under steady traffic.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, _ := newTestServer(t, Config{MaxBatchPatterns: 4, MaxBodyBytes: 64 << 20})
	h := s.Handler()
	small := newReusedRequest("/estimate", []byte(`{"pattern":"//faculty//TA"}`))
	small.serve(h)
	// One collection: a scratch the pool still holds survives it.
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	func() {
		// Built by hand: json.Marshal would keep its 8 MiB buffer in
		// encoding/json's own pool.
		var body strings.Builder
		body.WriteString(`{"patterns":[`)
		for i := 0; i < 8<<10; i++ {
			if i > 0 {
				body.WriteByte(',')
			}
			fmt.Fprintf(&body, `"//faculty//TA%01024d"`, i)
		}
		body.WriteString(`]}`)
		big := newReusedRequest("/estimate", []byte(body.String()))
		big.serve(h)
		if big.status != http.StatusBadRequest {
			t.Fatalf("oversized batch: status %d, want 400", big.status)
		}
	}()
	for i := 0; i < 3; i++ {
		small.serve(h)
	}
	if grown := int64(heap()) - int64(before); grown > 2<<20 {
		t.Errorf("heap grew %d bytes after an 8 MiB batch and three small requests, want < 2 MiB", grown)
	}
}

// FuzzEstimateRequestMatchesJSON: whatever the scanner accepts,
// encoding/json accepts with the same request; and /estimate's decode
// (scanner, then fall-back) agrees with encoding/json on every body,
// even over a scratch request left dirty by an earlier one.
func FuzzEstimateRequestMatchesJSON(f *testing.F) {
	for _, seed := range []string{
		`{"pattern":"//faculty//TA"}`,
		`{"patterns":["//a//b","//c"]}`,
		` { "pattern" : "//a" , "patterns" : [ "//b" , "//c" ] } ` + "\n",
		`{"patterns":[]}`,
		`{}`,
		`{"pattern":""}`,
		`{"pattern":"//a"}{"pattern":"//b"}`,
		`{"pattern":"//a"} garbage`,
		`{"pattern":"\/\/a"}`,
		`{"pattern":"\u00e9"}`,
		`{"pattern":"//a","pattern":"//b"}`,
		`{"PATTERN":"//a"}`,
		`{"Patterns":["//a"]}`,
		`{"pattern":null}`,
		`{"patterns":null}`,
		`{"patterns":[null]}`,
		`{"pattern":1}`,
		`{"pattern":"//a",}`,
		`{"patterns":["//a",]}`,
		`{"other":"x"}`,
		"{\"pattern\":\"//a\x7f\"}",
		"{\"pattern\":\"//a\x01\"}",
		"{\"pattern\":\"//\xff\"}",
		`[]`,
		``,
		`{`,
		`{"pattern":"//a"`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want EstimateRequest
		wantErr := decodeJSON(bytes.NewReader(body), &want)
		var scanned EstimateRequest
		if scanEstimateRequest(body, &scanned) {
			if wantErr != nil {
				t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", body, wantErr)
			}
			if scanned.Pattern != want.Pattern || !slices.Equal(scanned.Patterns, want.Patterns) {
				t.Fatalf("%q: scanner %+v, encoding/json %+v", body, scanned, want)
			}
		}
		got := EstimateRequest{Pattern: "stale", Patterns: []string{"stale", "stale"}}
		err := decodeEstimateRequest(body, &got)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%q: decode error %v, encoding/json %v", body, err, wantErr)
		}
		if err == nil && (got.Pattern != want.Pattern || !slices.Equal(got.Patterns, want.Patterns)) {
			t.Fatalf("%q: decoded %+v, encoding/json %+v", body, got, want)
		}
	})
}

// FuzzEstimateResponseMatchesJSON: the appender writes exactly what
// json.Encoder.Encode writes for the same response, or both fail with
// the same error.
func FuzzEstimateResponseMatchesJSON(f *testing.F) {
	for _, p := range []string{"//faculty//TA", "<>&", `"`, `\`, "a\x00\x1f\n\t", "\xff\xfe", "\u2028\u2029", "é", "\x7f", ""} {
		for _, v := range []float64{0, math.Copysign(0, -1), 1, 2.5, 5e-324, 1e-7, 1e-6, 1e20, 1e21, 123456789.125, math.NaN(), math.Inf(1), math.Inf(-1)} {
			f.Add(p, v, uint64(7), int64(250), true, uint8(0))
		}
	}
	f.Add("//a", 3.0, uint64(math.MaxUint64), int64(math.MinInt64), false, uint8(1))
	f.Add("//a", 3.0, uint64(0), int64(-1), false, uint8(2))
	f.Add("//a", 3.0, uint64(1), int64(1), false, uint8(3))
	f.Fuzz(func(t *testing.T, pattern string, estimate float64, version uint64, elapsed int64, noOverlap bool, shape uint8) {
		first := EstimateResult{Pattern: pattern, Estimate: estimate, ElapsedNS: elapsed, UsedNoOverlap: noOverlap}
		resp := EstimateResponse{Version: version}
		switch shape % 4 {
		case 0: // single pattern: the top-level estimate echoes the result
			resp.Results = []EstimateResult{first}
			resp.Estimate = &resp.Results[0].Estimate
		case 1: // batch
			second := EstimateResult{Pattern: pattern + "/x", Estimate: estimate / 3, ElapsedNS: elapsed / 2}
			resp.Results = []EstimateResult{first, second}
		case 2: // a top-level estimate that differs from the first result
			other := estimate * 2
			resp.Results = []EstimateResult{first}
			resp.Estimate = &other
		case 3: // no results
			if shape&4 != 0 {
				resp.Results = []EstimateResult{}
			}
		}
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(&resp)
		got, err := appendEstimateResponse([]byte("prefix"), &resp)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%+v: error %v, encoding/json %v", resp, err, wantErr)
		}
		if err == nil && string(got) != "prefix"+want.String() {
			t.Fatalf("%+v:\n got %s\nwant %s", resp, got[len("prefix"):], want.Bytes())
		}
	})
}

// BenchmarkEstimateHandler serves one single-pattern /estimate request
// through Handler().ServeHTTP, the way perfbench's read-hot load does,
// over a small corpus so the handler's own cost dominates.
func BenchmarkEstimateHandler(b *testing.B) {
	s, _ := newTestServer(b, Config{TraceSample: 64})
	rr := newReusedRequest("/estimate", []byte(`{"pattern":"//faculty//TA"}`))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rr.serve(s.Handler())
	}
	if rr.status != http.StatusOK {
		b.Fatalf("status %d: %s", rr.status, rr.out.Bytes())
	}
}
