package xmlest_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlest"
	"xmlest/internal/core"
	"xmlest/internal/datagen"
	"xmlest/internal/xmltree"
)

const facultyDoc = `<department>
	<faculty><name/><RA/></faculty>
	<staff><name/></staff>
	<faculty><name/><secretary/><RA/><RA/><RA/></faculty>
	<lecturer><name/><TA/><TA/><TA/></lecturer>
	<faculty><name/><secretary/><TA/><RA/><RA/><TA/></faculty>
	<research_scientist><name/><secretary/><RA/><RA/><RA/><RA/></research_scientist>
</department>`

func openFig1(t *testing.T) *xmlest.Database {
	t.Helper()
	db, err := xmlest.Open(strings.NewReader(facultyDoc))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	db.AddAllTagPredicates()
	return db
}

func TestQuickstartFlow(t *testing.T) {
	db := openFig1(t)
	real, err := db.Count("//faculty//TA")
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	if real != 2 {
		t.Fatalf("real = %v, want 2", real)
	}
	est, err := db.NewEstimator(xmlest.Options{GridSize: 2})
	if err != nil {
		t.Fatalf("NewEstimator: %v", err)
	}
	res, err := est.Estimate("//faculty//TA")
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if math.Abs(res.Estimate-real) > 1 {
		t.Errorf("estimate %v too far from real %v", res.Estimate, real)
	}
	if res.Elapsed <= 0 {
		t.Errorf("Elapsed not recorded")
	}
}

func TestBaselinesViaFacade(t *testing.T) {
	db := openFig1(t)
	naive, err := db.Naive("//faculty//TA")
	if err != nil {
		t.Fatalf("Naive: %v", err)
	}
	if naive != 15 {
		t.Errorf("naive = %v, want 15", naive)
	}
	bound, ok, err := db.SchemaUpperBound("//faculty//TA")
	if err != nil || !ok || bound != 5 {
		t.Errorf("SchemaUpperBound = %v ok=%v err=%v, want 5 true nil", bound, ok, err)
	}
	if _, ok, _ := db.SchemaUpperBound("//department//faculty[.//TA][.//RA]"); ok {
		t.Errorf("SchemaUpperBound on a twig: want ok=false")
	}
}

func TestCustomPredicates(t *testing.T) {
	doc := `<db><rec><year>1985</year></rec><rec><year>1995</year></rec><rec><year>1984</year></rec></db>`
	db, err := xmlest.Open(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	db.AddAllTagPredicates()
	db.AddPredicate(xmlest.Named{Alias: "1980's", Inner: xmlest.And{Parts: []xmlest.Predicate{
		xmlest.Tag{Value: "year"}, xmlest.NumericRange{Lo: 1980, Hi: 1989},
	}}})
	real, err := db.Count("//rec//{1980's}")
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	if real != 2 {
		t.Errorf("real = %v, want 2", real)
	}
	est, err := db.NewEstimator(xmlest.Options{GridSize: 4})
	if err != nil {
		t.Fatalf("NewEstimator: %v", err)
	}
	res, err := est.Estimate("//rec//{1980's}")
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if res.Estimate <= 0 {
		t.Errorf("estimate = %v, want > 0", res.Estimate)
	}
}

func TestOpenFiles(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.xml")
	p2 := filepath.Join(dir, "b.xml")
	if err := os.WriteFile(p1, []byte(`<a><x/></a>`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p2, []byte(`<a><y/></a>`), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := xmlest.OpenFiles(p1, p2)
	if err != nil {
		t.Fatalf("OpenFiles: %v", err)
	}
	db.AddAllTagPredicates()
	real, err := db.Count("//a//x")
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	if real != 1 {
		t.Errorf("real = %v, want 1", real)
	}
	if _, err := xmlest.OpenFiles(filepath.Join(dir, "missing.xml")); err == nil {
		t.Errorf("missing file: want error")
	}
}

func TestFromCatalogWithGeneratedData(t *testing.T) {
	tr := datagen.GenerateDBLP(datagen.DBLPConfig{Seed: 3, Scale: 0.01})
	db := xmlest.FromCatalog(datagen.DBLPCatalog(tr))
	est, err := db.NewEstimator(xmlest.Options{GridSize: 10})
	if err != nil {
		t.Fatalf("NewEstimator: %v", err)
	}
	real, err := db.Count("//article//author")
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	res, err := est.Estimate("//article//author")
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if real <= 0 || res.Estimate <= 0 {
		t.Fatalf("degenerate: real=%v est=%v", real, res.Estimate)
	}
	if ratio := res.Estimate / real; ratio < 0.5 || ratio > 2 {
		t.Errorf("article//author ratio = %v, want within [0.5, 2]", ratio)
	}
}

func TestEstimatePrimitiveRequiresPair(t *testing.T) {
	db := openFig1(t)
	est, err := db.NewEstimator(xmlest.Options{GridSize: 2})
	if err != nil {
		t.Fatalf("NewEstimator: %v", err)
	}
	if _, err := est.EstimatePrimitive("//a[.//b]//c"); err == nil {
		t.Errorf("3-node pattern: want error")
	}
}

func TestParticipationFacade(t *testing.T) {
	db := openFig1(t)
	parts, err := db.Participation("//faculty//TA")
	if err != nil {
		t.Fatalf("Participation: %v", err)
	}
	if len(parts) != 2 || parts[0] != 1 || parts[1] != 2 {
		t.Errorf("participation = %v, want [1 2]", parts)
	}
}

func TestOpenRejectsBadXML(t *testing.T) {
	if _, err := xmlest.Open(strings.NewReader("<a><b></a>")); err == nil {
		t.Errorf("malformed XML: want error")
	}
}

func TestEstimatorPersistenceFacade(t *testing.T) {
	db := openFig1(t)
	est, err := db.NewEstimator(xmlest.Options{GridSize: 4})
	if err != nil {
		t.Fatalf("NewEstimator: %v", err)
	}
	blob, err := est.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	loaded, err := xmlest.LoadEstimator(blob)
	if err != nil {
		t.Fatalf("LoadEstimator: %v", err)
	}
	a, err := est.Estimate("//faculty//TA")
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	b, err := loaded.Estimate("//faculty//TA")
	if err != nil {
		t.Fatalf("loaded Estimate: %v", err)
	}
	if math.Abs(a.Estimate-b.Estimate) > 1e-12 {
		t.Errorf("loaded estimate %v != original %v", b.Estimate, a.Estimate)
	}
	if _, err := xmlest.LoadEstimator([]byte("junk")); err == nil {
		t.Errorf("LoadEstimator(junk): want error")
	}
}

// TestOneShardSummaryIsXQS2: a one-shard summary is written as an XQS2
// container that reloads and re-marshals to the same bytes, and a bare
// XQS1 summary record is not a loadable summary.
func TestOneShardSummaryIsXQS2(t *testing.T) {
	est, err := openFig1(t).NewEstimator(xmlest.Options{GridSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if est.ShardCount() != 1 {
		t.Fatalf("ShardCount = %d, want 1", est.ShardCount())
	}
	blob, err := est.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(blob, []byte("XQS2")) {
		t.Fatalf("one-shard summary starts with %q, want XQS2", blob[:min(4, len(blob))])
	}
	loaded, err := xmlest.LoadEstimator(blob)
	if err != nil {
		t.Fatal(err)
	}
	again, err := loaded.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("reloaded summary re-marshals to different bytes")
	}

	shards, err := core.UnmarshalShardSet(blob)
	if err != nil {
		t.Fatal(err)
	}
	record, err := shards[0].Est.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(record, []byte("XQS1")) {
		t.Fatalf("shard record starts with %q, want XQS1", record[:min(4, len(record))])
	}
	if _, err := xmlest.LoadEstimator(record); err == nil || !strings.Contains(err.Error(), "XQS2") {
		t.Fatalf("LoadEstimator(XQS1 record) = %v, want an error naming XQS2", err)
	}
}

func TestFindFacade(t *testing.T) {
	db := openFig1(t)
	matches, err := db.Find("//faculty//TA", 0)
	if err != nil {
		t.Fatalf("Find: %v", err)
	}
	if len(matches) != 2 {
		t.Errorf("matches = %d, want 2", len(matches))
	}
	limited, err := db.Find("//faculty//RA", 3)
	if err != nil {
		t.Fatalf("Find: %v", err)
	}
	if len(limited) != 3 {
		t.Errorf("limited = %d, want 3", len(limited))
	}
}

func TestFromTree(t *testing.T) {
	db := xmlest.FromTree(xmltree.Fig1Document())
	db.AddAllTagPredicates()
	real, err := db.Count("//department//faculty")
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	if real != 3 {
		t.Errorf("real = %v, want 3", real)
	}
}
