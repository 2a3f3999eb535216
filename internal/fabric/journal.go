// Package fabric is the fault-tolerant sharded sweep tier: a coordinator
// that leases grid cells to pull-based worker daemons, re-queues work
// lost to crashes or partitions with capped jittered backoff, degrades to
// in-process execution when no workers are live, and journals run state
// to a crash-safe write-ahead log so its own restarts resume instead of
// forgetting. It applies the paper's check-&-recover discipline to the
// harness itself: detect the fault (missed heartbeats, a worker asking
// again while it holds cells, a torn journal tail), rewind to known-good
// state (re-queue the cell, truncate the tail), re-execute, and verify
// the retry is bit-identical to the first try — nothing is ever silently
// lost or silently different.
package fabric

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/service/api"
	"repro/internal/sim"
)

// Journal record types.
const (
	// RecRun: a run was accepted (RunID, Req, Cells, Created).
	RecRun = "run"
	// RecCell: one cell of a run completed (RunID, Index, Key, Err,
	// CacheHit). The result payload itself lives in the cache record
	// keyed by Key, so results are journaled once even when runs repeat.
	RecCell = "cell"
	// RecFinish: a run reached a terminal status (RunID, Status, Err).
	RecFinish = "finish"
	// RecCache: a content-addressed cache insert (Key, Result).
	RecCache = "cache"
)

// Record is one journal entry. A single flat struct keeps the WAL format
// trivially evolvable: unknown fields are ignored on replay, absent ones
// are zero.
type Record struct {
	Type string `json:"t"`

	RunID   string          `json:"run,omitempty"`
	Req     *api.RunRequest `json:"req,omitempty"`
	Cells   int             `json:"cells,omitempty"`
	Created time.Time       `json:"created,omitzero"`

	Index    int    `json:"index,omitempty"`
	Key      string `json:"key,omitempty"`
	Err      string `json:"err,omitempty"`
	CacheHit bool   `json:"cache_hit,omitempty"`

	Status string      `json:"status,omitempty"`
	Result *sim.Result `json:"result,omitempty"`
}

// ReplayStats describes what a replay recovered and what it refused.
type ReplayStats struct {
	// Records is the count of intact records replayed.
	Records int
	// ValidBytes is the length of the intact prefix; everything past it
	// was truncated.
	ValidBytes int64
	// TruncatedBytes is the length of the discarded tail (0 on a clean
	// log).
	TruncatedBytes int64
	// TailError describes why the tail was discarded ("" on a clean log).
	TailError string
}

// ErrJournalClosed reports an append to a closed journal.
var ErrJournalClosed = errors.New("fabric: journal is closed")

// journalName is the WAL file under the data directory.
const journalName = "journal.wal"

// Journal is the append-only, fsync-per-record write-ahead log. Records
// are framed as an 8-byte header — payload length and CRC32 (IEEE) of
// the payload — followed by the JSON payload, so a crash mid-append
// leaves a detectable torn tail rather than a silently mis-parsed log.
type Journal struct {
	mu     sync.Mutex // serializes appends so concurrent cells never interleave frames
	f      *os.File
	path   string
	closed bool
}

// OpenJournal opens (creating as needed) the WAL under dir, replays the
// intact prefix, truncates any torn or corrupt tail, and returns the
// journal positioned for append along with the replayed records. A
// record is only trusted if its frame is complete and its CRC matches;
// everything from the first bad frame on is discarded, so a partial cell
// can never be resurrected.
func OpenJournal(dir string) (*Journal, []Record, ReplayStats, error) {
	var stats ReplayStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, stats, fmt.Errorf("fabric: creating data dir: %w", err)
	}
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("fabric: opening journal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, stats, fmt.Errorf("fabric: reading journal: %w", err)
	}
	recs, stats := decodeRecords(data)
	if stats.TruncatedBytes > 0 {
		if err := f.Truncate(stats.ValidBytes); err != nil {
			f.Close()
			return nil, nil, stats, fmt.Errorf("fabric: truncating torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(stats.ValidBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, stats, fmt.Errorf("fabric: seeking journal append point: %w", err)
	}
	return &Journal{f: f, path: path}, recs, stats, nil
}

// Append frames, writes and fsyncs one record. The fsync is the journal's
// contract: when Append returns nil the record survives a crash.
func (j *Journal) Append(rec Record) error {
	frame, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrJournalClosed
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("fabric: appending journal record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("fabric: syncing journal: %w", err)
	}
	return nil
}

// Close releases the WAL file. Appends after Close fail with
// ErrJournalClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("fabric: closing journal: %w", err)
	}
	return nil
}

// Path returns the WAL file path (diagnostics and tests).
func (j *Journal) Path() string { return j.path }

// frameHeader is [4 bytes little-endian payload length][4 bytes CRC32].
const frameHeader = 8

// maxRecordBytes bounds a single record frame. A length beyond it is
// treated as corruption rather than an allocation request: a torn header
// must not ask replay to allocate gigabytes.
const maxRecordBytes = 64 << 20

// encodeRecord frames one record for the WAL.
func encodeRecord(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("fabric: encoding journal record: %w", err)
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)
	return frame, nil
}

// decodeRecords replays the intact prefix of a WAL image. It never
// panics and never trusts a frame whose length, checksum or JSON does
// not hold: the first bad frame ends the replay and everything after it
// is reported as the truncated tail. The fuzz target drives this
// function directly.
func decodeRecords(data []byte) ([]Record, ReplayStats) {
	var (
		recs  []Record
		stats ReplayStats
	)
	off := int64(0)
	total := int64(len(data))
	fail := func(reason string) ([]Record, ReplayStats) {
		stats.ValidBytes = off
		stats.TruncatedBytes = total - off
		stats.TailError = reason
		return recs, stats
	}
	for off < total {
		if total-off < frameHeader {
			return fail("torn frame header")
		}
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxRecordBytes {
			return fail("frame length exceeds record bound")
		}
		if total-off-frameHeader < n {
			return fail("torn frame payload")
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return fail("payload checksum mismatch")
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fail("payload is not a journal record: " + err.Error())
		}
		recs = append(recs, rec)
		stats.Records++
		off += frameHeader + n
	}
	stats.ValidBytes = off
	return recs, stats
}
