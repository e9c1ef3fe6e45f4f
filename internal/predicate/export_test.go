package predicate

// ParallelNodes exposes parallelNodes to the external tests, which build
// trees on both sides of it.
const ParallelNodes = parallelNodes
