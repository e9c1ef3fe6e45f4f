// Prometheus collectors for the shard layer (see internal/metrics).
// The durable store chains the WAL's own collectors and adds the
// checkpoint/degraded surface plus the append-pipeline histograms; the
// plain store exports its binding counts.

package shard

import "xmlest/internal/metrics"

// Collect exports the durable layer's families: WAL watermarks (via the
// log's collector), checkpoint progress and failures, the degraded
// flags, commit group sizes (whose _count and _sum are the groups and
// batches committed), pre-commit queue wait, the per-stage append
// pipeline histograms, and what boot-time recovery rebuilt.
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

	rec := d.recovery
	e.Gauge("xqest_recovery_checkpoint_shards", "Shards boot-time recovery loaded from the manifest.", float64(rec.CheckpointShards))
	e.Gauge("xqest_recovery_checkpoint_version", "Serving-set version of the manifest boot-time recovery loaded.", float64(rec.CheckpointVersion))
	e.Gauge("xqest_recovery_replayed_records", "WAL records boot-time recovery replayed on top of the checkpoint.", float64(rec.ReplayedRecords))
	e.Gauge("xqest_recovery_replayed_docs", "Documents in the WAL records boot-time recovery replayed.", float64(rec.ReplayedDocs))
	e.Gauge("xqest_recovery_skipped_records", "WAL records boot-time recovery skipped because their documents failed to parse.", float64(rec.SkippedRecords))
}

// Collect exports the number of compiled-query bindings, on demand and
// warmed by publish. The serving set's shape is the daemon's to report
// (from the same snapshot as its corpus figures).
func (st *Store) Collect(e *metrics.Expo) {
	e.Counter("xqest_prepare_fanout_total", "Pattern bindings compiled against a shard set on demand.", float64(st.prepFanout.Load()))
	e.Counter("xqest_prepare_warmed_total", "Pattern bindings compiled against a shard set before it was published.", float64(st.prepWarmed.Load()))
}
