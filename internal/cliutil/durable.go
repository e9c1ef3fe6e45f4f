package cliutil

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"xmlest"
	"xmlest/internal/fsio"
	"xmlest/internal/manifest"
	"xmlest/internal/shard"
	"xmlest/internal/wal"
)

// DurableFlags carries the durability-related command-line flags of
// xqestd and xqest into OpenDurableDatabase. Zero values mean "use the
// library default" throughout.
type DurableFlags struct {
	// Fsync and FsyncInterval are the WAL fsync policy flags (-fsync,
	// -fsync-interval).
	Fsync         string
	FsyncInterval time.Duration

	// Data, Dataset, Scale and Seed are the corpus flags; they
	// bootstrap a fresh directory (see OpenDatabase).
	Data    string
	Dataset string
	Scale   float64
	Seed    int64

	// FaultSpec, if non-empty, is an fsio.ParseFaults schedule (the
	// -fault testing flag): the store then runs on a fault-injecting
	// filesystem.
	FaultSpec string
}

// OpenDurableDatabase opens (or recovers) a durable database in
// dataDir — the shared -data-dir path of xqestd and xqest. The corpus
// flags (-data/-dataset) bootstrap a fresh directory and define the
// predicate vocabulary on every boot; when both are empty the daemon
// starts empty with the all-tags vocabulary and grows by ingest alone.
// opts are the estimator options (-grid/-build-workers); the grid size
// must match the directory's manifest on recovered boots.
func OpenDurableDatabase(dataDir string, opts xmlest.Options, f DurableFlags) (*xmlest.Database, error) {
	var bootstrap func() (*xmlest.Database, error)
	if f.Data != "" || f.Dataset != "" {
		bootstrap = func() (*xmlest.Database, error) {
			return OpenDatabase(f.Data, f.Dataset, f.Scale, f.Seed)
		}
	}
	var fs fsio.FS
	if f.FaultSpec != "" {
		faults, err := fsio.ParseFaults(f.FaultSpec)
		if err != nil {
			return nil, fmt.Errorf("-fault: %w", err)
		}
		fs = fsio.NewFaultFS(fsio.OS, faults)
	}
	return xmlest.OpenDurable(dataDir, xmlest.DurableConfig{
		Options:       opts,
		Fsync:         f.Fsync,
		FsyncInterval: f.FsyncInterval,
		Bootstrap:     bootstrap,
		FS:            fs,
	})
}

// InspectWAL prints a data directory's write-ahead log: its segments
// (sequence ranges, record counts, sizes, torn tails) and, when
// records is true, every record's sequence, ack version, document
// count and byte size. Read-only: torn tails are reported, not
// repaired.
func InspectWAL(w io.Writer, dataDir string, records bool) error {
	dir := filepath.Join(dataDir, shard.WALDir)
	segs, err := wal.List(dir)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		fmt.Fprintf(w, "no WAL segments in %s\n", dir)
		return nil
	}
	var totalRecords int
	var totalBytes int64
	for _, seg := range segs {
		totalRecords += seg.Records
		totalBytes += seg.Bytes
	}
	fmt.Fprintf(w, "%d segment(s), %d record(s), %d bytes in %s\n", len(segs), totalRecords, totalBytes, dir)
	for _, seg := range segs {
		torn := ""
		if seg.TornBytes > 0 {
			torn = fmt.Sprintf("  TORN TAIL: %d bytes", seg.TornBytes)
		}
		span := "empty"
		if seg.Records > 0 {
			span = fmt.Sprintf("seq %d..%d", seg.FirstSeq, seg.LastSeq)
		}
		fmt.Fprintf(w, "  %-24s %-18s %6d record(s) %10d bytes%s\n",
			filepath.Base(seg.Path), span, seg.Records, seg.Bytes, torn)
	}
	if !records {
		return nil
	}
	return wal.ScanDir(dir, 0, func(rec wal.Record) error {
		var bytes int
		for _, d := range rec.Docs {
			bytes += len(d)
		}
		fmt.Fprintf(w, "  record seq %-8d ack version %-8d %3d doc(s) %8d bytes\n",
			rec.Seq, rec.Version, len(rec.Docs), bytes)
		return nil
	})
}

// InspectManifest prints a data directory's checkpoint manifest:
// pinned version, WAL truncation point, grid size and the live shard
// table.
func InspectManifest(w io.Writer, dataDir string) error {
	man, ok, err := manifest.Load(dataDir)
	if err != nil {
		return err
	}
	if !ok {
		fmt.Fprintf(w, "no %s in %s (no checkpoint yet)\n", manifest.FileName, dataDir)
		return nil
	}
	fmt.Fprintf(w, "checkpoint version %d, wal truncation point %d, grid %d, %d shard(s)\n",
		man.Version, man.WALSeq, man.GridSize, len(man.Shards))
	for _, sh := range man.Shards {
		fmt.Fprintf(w, "  shard %-4d %-28s %6d doc(s) %10d nodes  wal seq %-6d %10d bytes  crc %08x\n",
			sh.ID, sh.File, sh.Docs, sh.Nodes, sh.WALSeq, sh.Bytes, sh.CRC32)
	}
	return nil
}
