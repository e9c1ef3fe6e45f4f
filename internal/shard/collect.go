// Prometheus collectors for the shard layer (see internal/metrics).
// The durable store chains the WAL's own collectors and adds the
// checkpoint/degraded surface plus the append-pipeline histograms; the
// plain store exports serving-set shape and binding counts.

package shard

import "xmlest/internal/metrics"

// Collect exports the durable layer's families: WAL watermarks (via the
// log's collector), checkpoint progress and failures, the degraded
// flags, commit group sizes (whose _count and _sum are the groups and
// batches committed), pre-commit queue wait, and the per-stage append
// pipeline histograms.
func (d *DurableStore) Collect(e *metrics.Expo) {
	d.log.Collect(e)
	d.stages.Collect(e)

	e.Counter("xqest_checkpoints_total", "Checkpoints taken by this process.", float64(d.checkpoints.Load()))
	e.Counter("xqest_checkpoint_failures_total", "Checkpoint attempts that failed since open.", float64(d.cpFailures.Load()))
	e.Gauge("xqest_checkpoint_version", "Serving-set version pinned by the newest checkpoint.", float64(d.cpVersion.Load()))
	e.Gauge("xqest_checkpoint_wal_seq", "WAL sequence the newest checkpoint made redundant.", float64(d.cpSeq.Load()))

	comp, _, degraded := d.Degraded()
	for _, c := range []string{"wal", "checkpoint"} {
		v := 0.0
		if degraded && comp == c {
			v = 1
		}
		e.Gauge("xqest_degraded", "1 when the named storage component has failed (reads still serve).", v, "component", c)
	}

	e.Family("xqest_group_commit_group_size", "histogram", "Append batches per commit group.")
	e.HistogramSamples("xqest_group_commit_group_size", d.groupSizes)
	e.Family("xqest_commit_queue_wait_seconds", "histogram", "Wait from append arrival to durable commit.")
	e.HistogramSamples("xqest_commit_queue_wait_seconds", d.queueWait)
}

// Collect exports the serving-set shape — shard count and set
// version — and the number of compiled-query bindings, on demand and
// warmed by publish.
func (st *Store) Collect(e *metrics.Expo) {
	set := st.Current()
	e.Gauge("xqest_shards", "Shards in the serving set.", float64(set.Len()))
	e.Gauge("xqest_set_version", "Serving-set version.", float64(set.version))
	e.Counter("xqest_prepare_fanout_total", "Pattern bindings compiled against a shard set on demand.", float64(st.prepFanout.Load()))
	e.Counter("xqest_prepare_warmed_total", "Pattern bindings compiled against a shard set before it was published.", float64(st.prepWarmed.Load()))
}
