package datagen

import (
	"testing"

	"xmlest/internal/predicate"
)

var builtCatalog *predicate.Catalog

// BenchmarkCatalogDBLP materializes the paper's Table 1 predicates over
// perfbench's corpus (GenerateDBLP scale 4, seed 1: 622k nodes), the
// step of every set-up that follows the parse.
func BenchmarkCatalogDBLP(b *testing.B) {
	tree := GenerateDBLP(DBLPConfig{Seed: 1, Scale: 4})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builtCatalog = DBLPCatalog(tree)
	}
}
