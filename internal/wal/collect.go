package wal

import "xmlest/internal/metrics"

// Collect exports the log's durability families: sequence watermarks,
// live segment count and bytes, fsync count, and the sealed flag. It
// implements metrics.Collector so the durable layer can chain the
// log into the daemon's /metrics exposition.
func (l *Log) Collect(e *metrics.Expo) {
	e.Gauge("xqest_wal_last_seq", "Newest appended WAL sequence.", float64(l.LastSeq()))
	e.Gauge("xqest_wal_durable_seq", "Newest WAL sequence known fsynced.", float64(l.DurableSeq()))
	e.Gauge("xqest_wal_segments", "Live WAL segment files.", float64(len(l.Segments())))
	e.Gauge("xqest_wal_size_bytes", "Total bytes across live WAL segments.", float64(l.Size()))
	e.Counter("xqest_wal_fsyncs_total", "WAL data fsyncs since open.", float64(l.Fsyncs()))
	sealed := 0.0
	if l.Err() != nil {
		sealed = 1
	}
	e.Gauge("xqest_wal_sealed", "1 when the log sealed after an I/O failure (appends refused).", sealed)
}
