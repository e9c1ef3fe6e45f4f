package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xmlest/internal/histogram"
	"xmlest/internal/pattern"
	"xmlest/internal/predicate"
)

// Estimator owns the summary data structures for one catalog of
// predicates over one tree — a position histogram per predicate, the
// TRUE histogram, and a coverage histogram per no-overlap predicate —
// and answers answer-size queries for twig patterns. It corresponds to
// the summary structure T′ of the paper's problem statement: once
// built, estimation consults only the histograms, never the tree.
type Estimator struct {
	catalog  *predicate.Catalog
	grid     histogram.Grid
	trueHist *histogram.Position
	hists    map[string]*histogram.Position
	covs     map[string]*histogram.Coverage
	levels   map[string]*LevelHistograms // nil unless Options.LevelHistograms
	overlap  map[string]bool             // predicate name -> predicate may overlap
	names    []string                    // stored order, for catalog-less estimators

	// ratios memoizes parent-child edge ratios keyed by predicate pair
	// (see childEdgeRatio), guarded for concurrent estimation; they are
	// pure functions of the immutable histograms.
	ratioMu sync.Mutex
	ratios  map[[2]string]float64

	// storageBytes caches StorageBytes (stored as total+1; 0 = unset).
	// The histograms are immutable after construction, so the encoding
	// size is a constant of the estimator — recomputing it re-walks
	// every sparse cell of every histogram, which made polling the
	// daemon's metrics a serving-path cost. Synthesize invalidates.
	storageBytes atomic.Int64
}

// Options configures estimator construction.
type Options struct {
	// GridSize is the number of buckets g per axis. The paper uses 10
	// for all experiments except the grid-size sweeps.
	GridSize int

	// EquiDepth selects equi-depth (non-uniform) bucket boundaries
	// computed from the distribution of all node start positions, an
	// extension the paper defers to the tech report. The default is the
	// paper's uniform grid.
	EquiDepth bool

	// SkipCoverage disables coverage-histogram construction, forcing
	// all estimates through the primitive algorithm. Used by ablation
	// benchmarks.
	SkipCoverage bool

	// LevelHistograms additionally builds per-depth position histograms
	// for every predicate, enabling parent-child edge estimation (the
	// tech-report extension; see level.go). Without them, parent-child
	// edges are estimated as ancestor-descendant, an upper-biased
	// approximation.
	LevelHistograms bool

	// BuildWorkers bounds the worker pool that fans the per-predicate
	// summary builds (position, coverage, level histograms) during
	// NewEstimator. Zero means GOMAXPROCS; negative values are a
	// configuration error (see Validate). Per-predicate builds are
	// independent and deterministic, so the resulting estimator is
	// identical for every worker count.
	BuildWorkers int
}

// DefaultOptions mirror the paper's experimental setup.
var DefaultOptions = Options{GridSize: 10}

// Validate reports configuration errors instead of letting bad values
// surface as silent misbehaviour (or huge allocations) deep inside a
// build. The zero value of every field is valid: zero GridSize and
// BuildWorkers select defaults.
func (o Options) Validate() error {
	if o.GridSize < 0 {
		return fmt.Errorf("core: negative grid size %d (use 0 for the default of %d)", o.GridSize, DefaultOptions.GridSize)
	}
	if o.GridSize > histogram.MaxGridSize {
		return fmt.Errorf("core: grid size %d exceeds the supported maximum %d", o.GridSize, histogram.MaxGridSize)
	}
	if o.BuildWorkers < 0 {
		return fmt.Errorf("core: negative BuildWorkers %d (use 0 for GOMAXPROCS)", o.BuildWorkers)
	}
	return nil
}

// NewEstimator builds every summary structure for the catalog's
// predicates. The catalog must already contain the predicates that
// queries will reference; it must also include the TRUE predicate if
// compound-predicate estimation is wanted.
//
// Construction is a single-pass pipeline: every tree node is bucketed
// exactly once (histogram.ComputeNodeCells) and the per-predicate
// builds — position histogram, coverage histogram for no-overlap
// predicates, optional level histograms — consume the shared cells and
// fan out across a bounded worker pool (Options.BuildWorkers). The
// builds are independent and deterministic, so the summary is
// bit-identical for every worker count; a test asserts this.
func NewEstimator(cat *predicate.Catalog, opts Options) (*Estimator, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.GridSize == 0 {
		opts.GridSize = DefaultOptions.GridSize
	}
	t := cat.Tree
	var grid histogram.Grid
	var err error
	if opts.EquiDepth {
		positions := make([]int, 0, t.NumNodes())
		for id := 1; id < len(t.Nodes); id++ {
			positions = append(positions, t.Nodes[id].Start)
		}
		grid, err = histogram.NewEquiDepthGrid(opts.GridSize, positions, t.MaxPos)
	} else {
		grid, err = histogram.NewUniformGrid(opts.GridSize, t.MaxPos)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return buildEstimator(cat, grid, opts)
}

// NewEstimatorWithGrid builds the estimator over an explicitly supplied
// grid instead of deriving one from Options.GridSize. The grid must
// cover every position label of the catalog's tree. The shard subsystem
// uses this to build a monolithic reference estimator on a
// document-aligned grid — the grid under which cross-shard estimate
// summation is provably exact (see DESIGN.md, "Shard lifecycle").
func NewEstimatorWithGrid(cat *predicate.Catalog, grid histogram.Grid, opts Options) (*Estimator, error) {
	if grid.Size() < 1 {
		return nil, fmt.Errorf("core: empty grid")
	}
	if grid.Size() > histogram.MaxGridSize {
		return nil, fmt.Errorf("core: grid size %d exceeds the supported maximum %d", grid.Size(), histogram.MaxGridSize)
	}
	if grid.MaxPos() < cat.Tree.MaxPos {
		return nil, fmt.Errorf("core: grid covers positions [0,%d) but the tree uses [0,%d)", grid.MaxPos(), cat.Tree.MaxPos)
	}
	return buildEstimator(cat, grid, opts)
}

// buildEstimator is the shared construction pipeline behind
// NewEstimator and NewEstimatorWithGrid.
func buildEstimator(cat *predicate.Catalog, grid histogram.Grid, opts Options) (*Estimator, error) {
	t := cat.Tree
	cells := histogram.ComputeNodeCells(t, grid)
	e := &Estimator{
		catalog:  cat,
		grid:     grid,
		trueHist: histogram.BuildTrueFromCells(cells),
		hists:    make(map[string]*histogram.Position, cat.Len()),
		covs:     make(map[string]*histogram.Coverage),
		overlap:  make(map[string]bool, cat.Len()),
	}
	if opts.LevelHistograms {
		e.levels = make(map[string]*LevelHistograms, cat.Len())
	}

	names := cat.Names()
	type built struct {
		hist   *histogram.Position
		cov    *histogram.Coverage
		levels *LevelHistograms
		err    error
	}
	results := make([]built, len(names))
	buildOne := func(idx int) {
		entry := cat.MustGet(names[idx])
		r := &results[idx]
		r.hist = histogram.BuildPositionFromCells(cells, entry.Nodes)
		if entry.NoOverlap && !opts.SkipCoverage {
			cov, err := histogram.BuildCoverageFromCells(t, entry.Nodes, e.trueHist, cells)
			if err != nil {
				r.err = fmt.Errorf("core: coverage for %s: %w", names[idx], err)
				return
			}
			r.cov = cov
		}
		if opts.LevelHistograms {
			r.levels = buildLevelHistogramsFromCells(t, entry.Nodes, cells)
		}
	}

	workers := opts.BuildWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(names) {
		workers = len(names)
	}
	if workers <= 1 {
		for idx := range names {
			buildOne(idx)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					idx := int(next.Add(1)) - 1
					if idx >= len(names) {
						return
					}
					buildOne(idx)
				}
			}()
		}
		wg.Wait()
	}

	for idx, name := range names {
		r := &results[idx]
		if r.err != nil {
			return nil, r.err
		}
		e.hists[name] = r.hist
		e.overlap[name] = !cat.MustGet(name).NoOverlap
		if r.cov != nil {
			e.covs[name] = r.cov
		}
		if opts.LevelHistograms {
			e.levels[name] = r.levels
		}
	}
	return e, nil
}

// Levels returns the per-depth histograms for a predicate, or nil when
// level histograms were not built.
func (e *Estimator) Levels(name string) *LevelHistograms {
	if e.levels == nil {
		return nil
	}
	return e.levels[name]
}

// EstimatePairParentChild estimates the answer size of the two-node
// parent-child pattern anc/desc using level histograms. It returns an
// error if level histograms were not built.
func (e *Estimator) EstimatePairParentChild(ancName, descName string) (Result, error) {
	start := time.Now()
	la, lb := e.Levels(ancName), e.Levels(descName)
	if la == nil || lb == nil {
		return Result{}, fmt.Errorf("core: level histograms not built (set Options.LevelHistograms)")
	}
	est, err := EstimateParentChild(la, lb)
	if err != nil {
		return Result{}, err
	}
	return Result{Estimate: est, Elapsed: time.Since(start)}, nil
}

// childEdgeRatio returns the factor by which a parent-child edge's
// estimate relates to the ancestor-descendant estimate between the two
// base predicates, computed from level histograms; 1 when levels are
// unavailable or the ancestor-descendant estimate is zero. The ratio is
// a pure function of the (immutable) level histograms, so it is
// memoized per predicate pair.
func (e *Estimator) childEdgeRatio(ancName, descName string) float64 {
	if e.levels == nil {
		return 1
	}
	key := [2]string{ancName, descName}
	e.ratioMu.Lock()
	if r, ok := e.ratios[key]; ok {
		e.ratioMu.Unlock()
		return r
	}
	e.ratioMu.Unlock()
	r := e.childEdgeRatioUncached(ancName, descName)
	e.ratioMu.Lock()
	if e.ratios == nil {
		e.ratios = make(map[[2]string]float64)
	}
	e.ratios[key] = r
	e.ratioMu.Unlock()
	return r
}

func (e *Estimator) childEdgeRatioUncached(ancName, descName string) float64 {
	la, lb := e.Levels(ancName), e.Levels(descName)
	if la == nil || lb == nil {
		return 1
	}
	ha, err := e.Histogram(ancName)
	if err != nil {
		return 1
	}
	hb, err := e.Histogram(descName)
	if err != nil {
		return 1
	}
	ad, err := EstimateAncestorBased(ha, hb)
	if err != nil || ad.Total() <= 0 {
		return 1
	}
	pc, err := EstimateParentChild(la, lb)
	if err != nil {
		return 1
	}
	r := pc / ad.Total()
	if r > 1 {
		r = 1 // a parent-child count can never exceed ancestor-descendant
	}
	return r
}

// Grid returns the estimator's grid.
func (e *Estimator) Grid() histogram.Grid { return e.grid }

// TrueHistogram returns the TRUE predicate's histogram.
func (e *Estimator) TrueHistogram() *histogram.Position { return e.trueHist }

// Histogram returns the position histogram for a predicate name.
func (e *Estimator) Histogram(name string) (*histogram.Position, error) {
	h, ok := e.hists[name]
	if !ok {
		return nil, fmt.Errorf("core: no histogram for predicate %q", name)
	}
	return h, nil
}

// HasPredicate reports whether the estimator holds a position
// histogram for the named predicate. Sharded estimation uses it to
// distinguish a predicate absent from one shard (zero contribution)
// from one unknown to the whole corpus (an error).
func (e *Estimator) HasPredicate(name string) bool {
	_, ok := e.hists[name]
	return ok
}

// CoverageHistogram returns the coverage histogram for a no-overlap
// predicate, or nil if the predicate overlaps or coverage was skipped.
func (e *Estimator) CoverageHistogram(name string) *histogram.Coverage {
	return e.covs[name]
}

// NoOverlap reports whether the named predicate was detected (or
// declared) to have the no-overlap property.
func (e *Estimator) NoOverlap(name string) bool {
	return !e.overlap[name]
}

// leaf builds the single-node sub-pattern for a predicate name.
func (e *Estimator) leaf(name string) (SubPattern, error) {
	h, err := e.Histogram(name)
	if err != nil {
		return SubPattern{}, err
	}
	return Leaf(h, e.covs[name], e.NoOverlap(name)), nil
}

// Result reports one estimation with its cost.
type Result struct {
	// Estimate is the estimated answer size.
	Estimate float64

	// Elapsed is the wall-clock estimation time (histogram arithmetic
	// only; histogram construction is a build-time cost).
	Elapsed time.Duration

	// UsedNoOverlap reports whether any join used the Fig 10
	// no-overlap algorithm.
	UsedNoOverlap bool
}

// EstimatePair estimates the answer size of the primitive two-node
// pattern anc//desc using the algorithm the paper would choose: the
// no-overlap estimation when the ancestor predicate has the no-overlap
// property (and coverage is available), the primitive pH-Join
// otherwise.
func (e *Estimator) EstimatePair(ancName, descName string) (Result, error) {
	start := time.Now()
	anc, err := e.leaf(ancName)
	if err != nil {
		return Result{}, err
	}
	desc, err := e.leaf(descName)
	if err != nil {
		return Result{}, err
	}
	joined, err := JoinAncestor(anc, desc)
	if err != nil {
		return Result{}, err
	}
	if err := joined.validate(); err != nil {
		return Result{}, err
	}
	return Result{
		Estimate:      joined.Total(),
		Elapsed:       time.Since(start),
		UsedNoOverlap: anc.NoOverlap && anc.Cvg != nil,
	}, nil
}

// EstimatePairPrimitive estimates anc//desc with the primitive (Fig 6 /
// Fig 9) algorithm regardless of schema information — the "Overlap
// Estimate" column of the paper's tables.
func (e *Estimator) EstimatePairPrimitive(ancName, descName string) (Result, error) {
	start := time.Now()
	ha, err := e.Histogram(ancName)
	if err != nil {
		return Result{}, err
	}
	hb, err := e.Histogram(descName)
	if err != nil {
		return Result{}, err
	}
	est, err := EstimateAncestorBased(ha, hb)
	if err != nil {
		return Result{}, err
	}
	return Result{Estimate: est.Total(), Elapsed: time.Since(start)}, nil
}

// EstimateTwig estimates the answer size of an arbitrary twig pattern
// by composing binary joins bottom-up: each pattern node's sub-pattern
// is folded with its children's sub-patterns through JoinAncestor, so
// multiple children multiply through per-cell join factors (our
// interpretation of the tech-report composition; see DESIGN.md).
//
// Parent-child edges are estimated as ancestor-descendant joins scaled
// by a depth-difference refinement when level histograms are enabled;
// without them the ancestor-descendant estimate is used as-is (an
// upper-biased approximation the paper lists as tech-report work).
func (e *Estimator) EstimateTwig(p *pattern.Pattern) (Result, error) {
	start := time.Now()
	root, usedNoOverlap, err := e.buildSubPattern(p.Root)
	if err != nil {
		return Result{}, err
	}
	if err := root.validate(); err != nil {
		return Result{}, err
	}
	return Result{Estimate: root.Total(), Elapsed: time.Since(start), UsedNoOverlap: usedNoOverlap}, nil
}

// EstimateSubPattern exposes sub-pattern estimation for query
// optimizers that need intermediate-result estimates: it returns the
// SubPattern (estimate, participation, coverage) of the pattern,
// anchored at its root. Its histograms are immutable and may be shared
// with the estimator.
func (e *Estimator) EstimateSubPattern(p *pattern.Pattern) (SubPattern, error) {
	sp, _, err := e.buildSubPattern(p.Root)
	return sp, err
}

// buildSubPattern folds a pattern node's children into its leaf
// sub-pattern with JoinAncestor, bottom-up. Parent-child edges are
// scaled by the level-histogram ratio when level histograms are
// available (see childEdgeRatio). The fold is not memoized here: a
// PreparedQuery keeps its root fold, and Estimator.EstimateTwig folds
// afresh on every call.
func (e *Estimator) buildSubPattern(q *pattern.Node) (SubPattern, bool, error) {
	acc, err := e.leaf(q.PredName())
	if err != nil {
		return SubPattern{}, false, err
	}
	usedNoOverlap := false
	for _, qc := range q.Children {
		child, childNoOv, err := e.buildSubPattern(qc)
		if err != nil {
			return SubPattern{}, false, err
		}
		usedNoOverlap = usedNoOverlap || childNoOv
		if acc.NoOverlap && acc.Cvg != nil {
			usedNoOverlap = true
		}
		joined, err := JoinAncestor(acc, child)
		if err != nil {
			return SubPattern{}, false, err
		}
		if qc.Axis == pattern.Child {
			if r := e.childEdgeRatio(q.PredName(), qc.PredName()); r < 1 {
				joined.Est = joined.Est.Scaled(r)
			}
		}
		acc = joined
	}
	return acc, usedNoOverlap, nil
}

// StorageBytes reports the total compact-encoding size of every
// position histogram (and coverage histogram) the estimator holds —
// the paper's storage-requirement metric. The figure is computed once
// and cached: the histograms never change after construction (only
// Synthesize adds one, and it invalidates), and observability callers
// (the daemon's xqest_summary_bytes) may poll at serving rates.
func (e *Estimator) StorageBytes() int {
	if v := e.storageBytes.Load(); v > 0 {
		return int(v - 1)
	}
	total := 0
	for _, h := range e.hists {
		total += h.StorageBytes()
	}
	for _, c := range e.covs {
		total += c.StorageBytes()
	}
	e.storageBytes.Store(int64(total) + 1)
	return total
}
