package xmltree_test

import (
	"bytes"
	"testing"

	"xmlest/internal/datagen"
	"xmlest/internal/xmltree"
)

var parsedTree *xmltree.Tree

// BenchmarkParseDBLP parses perfbench's corpus (GenerateDBLP scale 4,
// seed 1: about 21 MB and 622k nodes) from its bytes, the first step of
// every set-up, durable bootstrap and WAL replay.
func BenchmarkParseDBLP(b *testing.B) {
	tree := datagen.GenerateDBLP(datagen.DBLPConfig{Seed: 1, Scale: 4})
	var buf bytes.Buffer
	if err := xmltree.WriteXML(&buf, tree, tree.Root()); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := xmltree.Parse(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		parsedTree = t
	}
}
