package datagen

import (
	"fmt"
	"math/rand"

	"xmlest/internal/predicate"
	"xmlest/internal/xmltree"
)

// DBLPConfig scales the DBLP-shaped dataset. The default targets the
// predicate cardinalities of the paper's Table 1 exactly; Scale shrinks
// every count proportionally for quick tests.
type DBLPConfig struct {
	Seed  int64
	Scale float64 // 1.0 reproduces Table 1 cardinalities
}

// DefaultDBLPConfig reproduces the paper's Table 1 cardinalities.
var DefaultDBLPConfig = DBLPConfig{Seed: 2002, Scale: 1.0}

// dblpTargets are the Table 1 node counts at Scale == 1.
type dblpTargets struct {
	article, book, inproceedings, phdthesis, mastersthesis int
	author, cite, cdrom, url                               int
	citeConf, citeJournal                                  int
	year1980s, year1990s, yearOther, missingYear           int
}

func targetsAt(scale float64) dblpTargets {
	s := func(n int) int {
		v := int(float64(n)*scale + 0.5)
		if v < 1 {
			v = 1
		}
		return v
	}
	// Record types: titles total 19,921 in Table 1; articles and books
	// are given, the remainder is split over the other DBLP record
	// types.
	t := dblpTargets{
		article:       s(7366),
		book:          s(408),
		inproceedings: s(11147),
		phdthesis:     s(600),
		mastersthesis: s(400),
		author:        s(41501),
		cite:          s(33097),
		cdrom:         s(1722),
		url:           s(19542),
		citeConf:      s(13609),
		citeJournal:   s(7834),
		year1980s:     s(13066),
		year1990s:     s(3963),
		missingYear:   s(7),
	}
	records := t.article + t.book + t.inproceedings + t.phdthesis + t.mastersthesis
	withYear := records - t.missingYear
	t.yearOther = withYear - t.year1980s - t.year1990s
	if t.yearOther < 0 {
		t.yearOther = 0
		t.year1990s = withYear - t.year1980s
	}
	return t
}

// GenerateDBLP builds the DBLP-shaped mega-tree. At Scale 1 the
// generated tree has the paper's Table 1 cardinalities for every listed
// predicate: 7,366 articles, 41,501 authors, 408 books, 1,722 cdroms,
// 33,097 cites (13,609 with "conf" prefix, 7,834 with "journal"
// prefix), 19,921 titles, 19,542 urls, 19,914 years (13,066 in the
// 1980s, 3,963 in the 1990s), with all record-level tags no-overlap.
func GenerateDBLP(cfg DBLPConfig) *xmltree.Tree {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	t := targetsAt(cfg.Scale)

	type recType struct {
		tag   string
		count int
	}
	recTypes := []recType{
		{"article", t.article},
		{"inproceedings", t.inproceedings},
		{"book", t.book},
		{"phdthesis", t.phdthesis},
		{"mastersthesis", t.mastersthesis},
	}
	records := 0
	for _, rt := range recTypes {
		records += rt.count
	}

	// Interleave record types deterministically so that every region of
	// the position space holds a mix (as in real DBLP, which is grouped
	// but interleaved at histogram granularity).
	tags := make([]string, 0, records)
	for _, rt := range recTypes {
		for i := 0; i < rt.count; i++ {
			tags = append(tags, rt.tag)
		}
	}
	r.Shuffle(len(tags), func(i, j int) { tags[i], tags[j] = tags[j], tags[i] })

	// Per-record field budgets, each summing to the Table 1 totals.
	authors := splitCount(r, t.author, records, 1)
	cites := make([]int, records)
	// Cites are skewed: half the records carry none, the rest share the
	// budget geometrically.
	citeCarriers := pickSubset(r, records, records/2)
	carrierCites := splitCount(r, t.cite, len(citeCarriers), 0)
	for i, rec := range citeCarriers {
		cites[rec] = carrierCites[i]
	}
	hasCdrom := make([]bool, records)
	for _, rec := range pickSubset(r, records, t.cdrom) {
		hasCdrom[rec] = true
	}
	hasURL := make([]bool, records)
	for _, rec := range pickSubset(r, records, t.url) {
		hasURL[rec] = true
	}

	// Year assignment: exact decade populations.
	years := make([]int, 0, records)
	for i := 0; i < t.year1980s; i++ {
		years = append(years, 1980+r.Intn(10))
	}
	for i := 0; i < t.year1990s; i++ {
		years = append(years, 1990+r.Intn(10))
	}
	for i := 0; i < t.yearOther; i++ {
		if r.Intn(2) == 0 {
			years = append(years, 1960+r.Intn(20))
		} else {
			years = append(years, 2000+r.Intn(2))
		}
	}
	for i := 0; i < t.missingYear; i++ {
		years = append(years, 0) // 0 = no year element
	}
	r.Shuffle(len(years), func(i, j int) { years[i], years[j] = years[j], years[i] })

	// Cite prefixes: exact conf/journal populations over the cite budget.
	citePrefixes := make([]string, 0, t.cite)
	for i := 0; i < t.citeConf; i++ {
		citePrefixes = append(citePrefixes, "conf")
	}
	for i := 0; i < t.citeJournal; i++ {
		citePrefixes = append(citePrefixes, "journals")
	}
	for len(citePrefixes) < t.cite {
		citePrefixes = append(citePrefixes, []string{"books", "series", "ms"}[r.Intn(3)])
	}
	r.Shuffle(len(citePrefixes), func(i, j int) {
		citePrefixes[i], citePrefixes[j] = citePrefixes[j], citePrefixes[i]
	})

	b := xmltree.NewBuilder()
	b.Begin("dblp")
	citeCursor := 0
	for rec := 0; rec < records; rec++ {
		b.Begin(tags[rec])
		for a := 0; a < authors[rec]; a++ {
			b.Element("author", name(r))
		}
		b.Element("title", phrase(r, 3+r.Intn(6)))
		if y := years[rec]; y != 0 {
			b.Element("year", fmt.Sprintf("%d", y))
		}
		if hasURL[rec] {
			b.Element("url", "db/"+tags[rec]+"/"+phrase(r, 1)+".html")
		}
		if hasCdrom[rec] {
			b.Element("cdrom", phrase(r, 1)+"/"+phrase(r, 1))
		}
		for c := 0; c < cites[rec]; c++ {
			prefix := citePrefixes[citeCursor]
			citeCursor++
			b.Element("cite", prefix+"/"+phrase(r, 1)+"/"+phrase(r, 1))
		}
		b.End()
	}
	b.End()
	return b.Tree()
}

// DBLPCatalog registers the paper's Table 1 predicates (with the
// paper's display names) plus the TRUE predicate on the given tree.
func DBLPCatalog(tr *xmltree.Tree) *predicate.Catalog {
	var preds []predicate.Predicate
	for _, tag := range []string{"article", "author", "book", "cdrom", "cite", "title", "url", "year"} {
		preds = append(preds, predicate.Tag{Value: tag})
	}
	preds = append(preds,
		predicate.Named{Alias: "conf", Inner: predicate.And{Parts: []predicate.Predicate{
			predicate.Tag{Value: "cite"}, predicate.ContentPrefix{Value: "conf"},
		}}},
		predicate.Named{Alias: "journal", Inner: predicate.And{Parts: []predicate.Predicate{
			predicate.Tag{Value: "cite"}, predicate.ContentPrefix{Value: "journals"},
		}}},
		predicate.Named{Alias: "1980's", Inner: predicate.And{Parts: []predicate.Predicate{
			predicate.Tag{Value: "year"}, predicate.NumericRange{Lo: 1980, Hi: 1989},
		}}},
		predicate.Named{Alias: "1990's", Inner: predicate.And{Parts: []predicate.Predicate{
			predicate.Tag{Value: "year"}, predicate.NumericRange{Lo: 1990, Hi: 1999},
		}}},
		predicate.True{},
	)
	cat := predicate.NewCatalog(tr)
	cat.AddBatch(preds)
	return cat
}
