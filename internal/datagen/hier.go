package datagen

import (
	"xmlest/internal/predicate"
	"xmlest/internal/xmltree"
)

// ManagerDTD is the exact recursive DTD the paper generates its
// synthetic dataset from (Section 5.2).
const ManagerDTD = `
<!ELEMENT manager (name, (manager | department | employee)+)>
<!ELEMENT department (name, email?, employee+, department*)>
<!ELEMENT employee (name+, email?)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT email (#PCDATA)>
`

// HierConfig scales the manager/department/employee dataset.
type HierConfig struct {
	Seed int64
	// Scale 1.0 targets the paper's Table 3 cardinalities
	// (~44 managers, ~270 departments, ~473 employees, ~173 emails,
	// ~1002 names); larger values grow the document proportionally by
	// raising the node budget.
	Scale float64
}

// DefaultHierConfig approximates the paper's Table 3 dataset.
var DefaultHierConfig = HierConfig{Seed: 52, Scale: 1.0}

// GenerateHier builds the synthetic manager/department/employee
// document from ManagerDTD. Generation parameters are tuned so that at
// Scale 1 the predicate cardinalities land near the paper's Table 3 and
// the overlap properties match exactly: manager and department overlap
// (both recurse), employee, email and name do not.
func GenerateHier(cfg HierConfig) *xmltree.Tree {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	d, err := ParseDTD(ManagerDTD)
	if err != nil {
		panic("datagen: ManagerDTD must parse: " + err.Error())
	}
	// Targets (Table 3): 44 managers, 270 departments, 473 employees,
	// 173 emails, 1002 names — about 1960 elements at Scale 1. The
	// branching parameters below are derived from those ratios; the
	// process is stochastic, so generation retries deterministically
	// (seed, seed+1, ...) until the document size lands in a ±25% band
	// around the target.
	target := int(1960 * cfg.Scale)
	gen := GenConfig{
		Root:         "manager",
		RepeatMean:   4.6,  // manager's (manager|department|employee)+ group
		OptionalProb: 0.23, // email? presence
		RepeatMeans: map[string]float64{
			"department": 0.5,  // department* recursion within departments
			"employee":   0.5,  // extra employees per department beyond the first
			"name":       0.45, // extra names per employee
		},
		ChoiceWeights: map[string]float64{
			"manager":    0.175,
			"department": 0.549,
			"employee":   0.276,
		},
		MaxDepth: 14,
		MaxNodes: 3 * target,
	}
	for attempt := 0; ; attempt++ {
		gen.Seed = cfg.Seed + int64(attempt)
		tree, err := d.Generate(gen)
		if err != nil {
			panic("datagen: ManagerDTD generation must succeed: " + err.Error())
		}
		if n := tree.NumNodes(); n >= target*3/4 && n <= target*5/4 {
			return tree
		}
		if attempt > 1000 {
			return tree // give up on the band; still a valid document
		}
	}
}

// HierCatalog registers the paper's Table 3 predicates plus TRUE.
func HierCatalog(tr *xmltree.Tree) *predicate.Catalog {
	var preds []predicate.Predicate
	for _, tag := range []string{"manager", "department", "employee", "email", "name"} {
		preds = append(preds, predicate.Tag{Value: tag})
	}
	cat := predicate.NewCatalog(tr)
	cat.AddBatch(append(preds, predicate.True{}))
	return cat
}
