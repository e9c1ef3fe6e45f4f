package histogram

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encoding of position histograms. The format is the compact
// sparse representation whose length the paper's storage-requirement
// experiments measure: only non-zero cells are encoded, with
// delta-encoded coordinates and varint counts. Integral counts (the
// common case for histograms built from data) are stored as varints;
// fractional counts (estimated histograms) fall back to 8-byte floats.
//
// Layout:
//
//	magic byte 'P'
//	flag byte: 1 if all counts integral, 0 otherwise
//	uvarint gridSize, uvarint maxPos            (uniform grids)
//	  — or 0, then gridSize+1 uvarint bounds    (non-uniform grids)
//	uvarint number of non-zero cells
//	per cell, in (i, j) order:
//	  uvarint delta of linear index i*g+j from the previous cell + 1
//	  count: uvarint (integral) or 8-byte big-endian float bits
const (
	posMagic     = 'P'
	flagIntegral = 1
)

// decodeMaxGridSize bounds the grid size decoders accept. A decoded
// histogram holds only its cells, but estimating over it takes g×g
// scratch (the join's ratio plane in Coverage.Scaled, an Accumulator),
// so untrusted blobs must not dictate unbounded g. 4096 (a 128 MB plane)
// is far beyond any grid the paper's experiments — or this repo's
// sweeps — use.
const decodeMaxGridSize = 1 << 12

func checkDecodedGridSize(size uint64) error {
	if size == 0 || size > decodeMaxGridSize {
		return fmt.Errorf("histogram: bad grid size %d (decoder accepts 1..%d)", size, decodeMaxGridSize)
	}
	return nil
}

// isUniform reports whether the grid's bounds match NewUniformGrid for
// its size and maxPos, so the encoding can store just two integers.
func (g Grid) isUniform() bool {
	size, maxPos := g.Size(), g.MaxPos()
	for i := 0; i <= size; i++ {
		if g.bounds[i] != i*maxPos/size {
			return false
		}
	}
	return true
}

// MarshalBinary encodes the histogram.
func (h *Position) MarshalBinary() ([]byte, error) {
	integral := true
	h.EachNonZero(func(_, _ int, c float64) {
		// Varint-encodable counts only: non-negative integers small
		// enough that the float→uint64 conversion is exact. Anything
		// else (fractions, negatives, astronomically large estimates)
		// takes the lossless float branch.
		if c != math.Trunc(c) || c < 0 || c >= 1<<63 {
			integral = false
		}
	})
	buf := make([]byte, 0, 64)
	buf = append(buf, posMagic)
	if integral {
		buf = append(buf, flagIntegral)
	} else {
		buf = append(buf, 0)
	}
	g := h.grid
	buf = appendGrid(buf, g)
	buf = binary.AppendUvarint(buf, uint64(h.NonZero()))
	prev := -1
	h.EachNonZero(func(i, j int, c float64) {
		idx := i*g.Size() + j
		buf = binary.AppendUvarint(buf, uint64(idx-prev))
		prev = idx
		if integral {
			buf = binary.AppendUvarint(buf, uint64(c))
		} else {
			var fb [8]byte
			binary.BigEndian.PutUint64(fb[:], math.Float64bits(c))
			buf = append(buf, fb[:]...)
		}
	})
	return buf, nil
}

// UnmarshalPosition decodes a histogram encoded by MarshalBinary.
func UnmarshalPosition(data []byte) (*Position, error) {
	r := &byteReader{data: data}
	magic, err := r.byte()
	if err != nil || magic != posMagic {
		return nil, fmt.Errorf("histogram: bad magic")
	}
	flag, err := r.byte()
	if err != nil {
		return nil, err
	}
	integral := flag == flagIntegral
	grid, err := readGrid(r)
	if err != nil {
		return nil, err
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	g := grid.Size()
	if n > uint64(g*g) {
		return nil, fmt.Errorf("histogram: cell count %d exceeds grid %dx%d", n, g, g)
	}
	// Each cell takes at least two bytes, which bounds the allocation
	// an untrusted count can ask for.
	cells := make([]Cell, 0, min(n, uint64(len(data)-r.off)/2))
	prev := -1
	for k := uint64(0); k < n; k++ {
		d, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if d == 0 {
			// Deltas are idx-prev with strictly increasing idx; a zero
			// delta would duplicate a cell.
			return nil, fmt.Errorf("histogram: zero cell delta")
		}
		idx := prev + int(d)
		prev = idx
		if idx < 0 || idx >= g*g {
			return nil, fmt.Errorf("histogram: cell index %d out of range", idx)
		}
		if idx%g < idx/g {
			// start bucket > end bucket is impossible for any node
			// (start < end); the encoder never emits such cells.
			return nil, fmt.Errorf("histogram: cell (%d,%d) below the diagonal", idx/g, idx%g)
		}
		var c float64
		if integral {
			u, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			c = float64(u)
		} else {
			fb, err := r.bytes(8)
			if err != nil {
				return nil, err
			}
			c = math.Float64frombits(binary.BigEndian.Uint64(fb))
		}
		if c != 0 {
			cells = append(cells, Cell{I: idx / g, J: idx % g, Count: c})
		}
	}
	return NewPosition(grid, cells), nil
}

// MarshalBinary encodes the coverage histogram with full fidelity:
// every stored entry with its float64 fraction. This is the persistence
// format; StorageBytes (below) reports the paper's theoretical-minimum
// metric instead, which counts only partial cells.
//
// Layout: magic 'C', grid (as in Position), uvarint entry count, then
// per entry: uvarint covered-cell key, uvarint ancestor-cell key,
// 8-byte big-endian float fraction.
func (c *Coverage) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 64)
	buf = append(buf, cvgMagic)
	buf = appendGrid(buf, c.grid)
	buf = binary.AppendUvarint(buf, uint64(c.Entries()))
	g := c.grid.Size()
	c.EachFrac(func(i, j, m, n int, f float64) {
		buf = binary.AppendUvarint(buf, uint64(i*g+j))
		buf = binary.AppendUvarint(buf, uint64(m*g+n))
		var fb [8]byte
		binary.BigEndian.PutUint64(fb[:], math.Float64bits(f))
		buf = append(buf, fb[:]...)
	})
	return buf, nil
}

const cvgMagic = 'C'

// UnmarshalCoverage decodes a coverage histogram encoded by
// Coverage.MarshalBinary.
func UnmarshalCoverage(data []byte) (*Coverage, error) {
	r := &byteReader{data: data}
	magic, err := r.byte()
	if err != nil || magic != cvgMagic {
		return nil, fmt.Errorf("histogram: bad coverage magic")
	}
	grid, err := readGrid(r)
	if err != nil {
		return nil, err
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	g := grid.Size()
	if n > uint64(g)*uint64(g)*uint64(g)*uint64(g) {
		return nil, fmt.Errorf("histogram: coverage entry count %d too large", n)
	}
	// Each entry takes at least 10 bytes, which bounds the allocation
	// an untrusted count can ask for.
	entries := make([]CoverageEntry, 0, min(n, uint64(len(data)-r.off)/10))
	for k := uint64(0); k < n; k++ {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		a, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if v >= uint64(g*g) || a >= uint64(g*g) {
			return nil, fmt.Errorf("histogram: coverage cell key out of range")
		}
		fb, err := r.bytes(8)
		if err != nil {
			return nil, err
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(fb))
		if math.IsNaN(f) || f < 0 {
			return nil, fmt.Errorf("histogram: bad coverage fraction %v", f)
		}
		entries = append(entries, CoverageEntry{int(v) / g, int(v) % g, int(a) / g, int(a) % g, f})
	}
	return NewCoverageFromEntries(grid, entries), nil
}

// appendGrid encodes a grid: uvarint size + maxPos for uniform grids, a
// zero marker followed by explicit bounds otherwise.
func appendGrid(buf []byte, g Grid) []byte {
	if g.isUniform() {
		buf = binary.AppendUvarint(buf, uint64(g.Size()))
		buf = binary.AppendUvarint(buf, uint64(g.MaxPos()))
		return buf
	}
	buf = binary.AppendUvarint(buf, 0)
	buf = binary.AppendUvarint(buf, uint64(g.Size()))
	for _, b := range g.bounds {
		buf = binary.AppendUvarint(buf, uint64(b))
	}
	return buf
}

// readGrid decodes a grid written by appendGrid.
func readGrid(r *byteReader) (Grid, error) {
	first, err := r.uvarint()
	if err != nil {
		return Grid{}, err
	}
	if first != 0 {
		if err := checkDecodedGridSize(first); err != nil {
			return Grid{}, err
		}
		maxPos, err := r.uvarint()
		if err != nil {
			return Grid{}, err
		}
		return NewUniformGrid(int(first), int(maxPos))
	}
	size, err := r.uvarint()
	if err != nil {
		return Grid{}, err
	}
	if err := checkDecodedGridSize(size); err != nil {
		return Grid{}, err
	}
	bounds := make([]int, size+1)
	for i := range bounds {
		b, err := r.uvarint()
		if err != nil {
			return Grid{}, err
		}
		bounds[i] = int(b)
		if i > 0 && bounds[i] <= bounds[i-1] {
			return Grid{}, fmt.Errorf("histogram: non-increasing bounds")
		}
	}
	return Grid{bounds: bounds}, nil
}

// StorageBytes reports the size of the compact encoding — the quantity
// plotted on the Y axis of the paper's Fig 11 and Fig 12 storage curves.
func (h *Position) StorageBytes() int {
	b, err := h.MarshalBinary()
	if err != nil {
		return 0
	}
	return len(b)
}

// StorageBytes reports the encoding size of the coverage histogram's
// partial cells: per partial cell pair, two delta-encoded linear cell
// indices plus a 2-byte fixed-point fraction. Cells with coverage 0 or 1
// need no storage (Theorem 2); they are reconstructible from the
// position histogram.
func (c *Coverage) StorageBytes() int {
	const eps = 1e-12
	g := c.grid.Size()
	buf := make([]byte, 0, 64)
	c.EachFrac(func(i, j, m, n int, f float64) {
		if f <= eps || f >= 1-eps {
			return
		}
		buf = binary.AppendUvarint(buf, uint64(i*g+j))
		buf = binary.AppendUvarint(buf, uint64(m*g+n))
		buf = append(buf, 0, 0) // 16-bit fixed-point fraction
	})
	return len(buf)
}

type byteReader struct {
	data []byte
	off  int
}

func (r *byteReader) byte() (byte, error) {
	if r.off >= len(r.data) {
		return 0, fmt.Errorf("histogram: truncated encoding")
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *byteReader) bytes(n int) ([]byte, error) {
	if r.off+n > len(r.data) {
		return nil, fmt.Errorf("histogram: truncated encoding")
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("histogram: bad uvarint")
	}
	r.off += n
	return v, nil
}
