package pack

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"newgame/internal/pack/wire"
)

// LogMagic identifies an epoch log file.
const LogMagic = "NGEL"

// logVersion is the current log format version.
const logVersion = 1

const logHeaderSize = 4 + 2 // magic + version

// EpochOp is one netlist edit: what a timingd what-if or ECO request
// carries on the wire (timingd.Op is this type) and what the log records
// for a committed one.
type EpochOp struct {
	// Kind selects the edit: "resize" retypes Cell in place to the master
	// To (pin-compatible variant — Vt swap or drive change); "buffer"
	// splits the loads named in Loads off net Net behind a new buffer of
	// master To.
	Kind string `json:"op"`
	// Cell names the resize target ("resize").
	Cell string `json:"cell,omitempty"`
	// Net names the buffered net ("buffer").
	Net string `json:"net,omitempty"`
	// Loads names the moved load pins as "cell/pin" ("buffer").
	Loads []string `json:"loads,omitempty"`
	// To is the replacement or buffer master name.
	To string `json:"to"`
}

// EpochRecord is one committed epoch: the epoch number the commit produced
// and the op batch that was applied to reach it.
type EpochRecord struct {
	Epoch int64
	Ops   []EpochOp
}

// Log is an append-only epoch log open for writing. Each Append is one
// length-prefixed, CRC-framed record followed by an fsync, so a crash
// leaves at most one torn frame at the tail — which ReadLog detects and
// drops, never misreads.
//
// Frame layout after the {magic, version} header: u32 payload length,
// u32 CRC-32 of the payload, then the payload (epoch i64, op count u32,
// ops as length-prefixed strings).
type Log struct {
	f *os.File
}

// OpenLog opens (creating if needed) the epoch log at path for appending.
// An empty file gets the header; an existing file must carry it.
func OpenLog(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		var w wire.Writer
		w.Raw([]byte(LogMagic))
		w.U16(logVersion)
		if _, err := f.Write(w.Bytes()); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		hdr := make([]byte, logHeaderSize)
		if _, err := f.ReadAt(hdr, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("pack: reading log header: %w", err)
		}
		if err := checkLogHeader(hdr); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &Log{f: f}, nil
}

func checkLogHeader(hdr []byte) error {
	if len(hdr) < logHeaderSize || string(hdr[:4]) != LogMagic {
		return fmt.Errorf("pack: not an epoch log")
	}
	r := wire.NewReader(hdr[4:logHeaderSize])
	if v := r.U16(); v != logVersion {
		return fmt.Errorf("pack: unsupported log version %d (want %d)", v, logVersion)
	}
	return nil
}

// Append writes one committed epoch and syncs it to disk.
func (l *Log) Append(rec EpochRecord) error {
	payload := encodeEpochRecord(rec)
	var w wire.Writer
	w.U32(uint32(len(payload)))
	w.U32(crc32.ChecksumIEEE(payload))
	w.Raw(payload)
	if _, err := l.f.Write(w.Bytes()); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close closes the underlying file.
func (l *Log) Close() error { return l.f.Close() }

func encodeEpochRecord(rec EpochRecord) []byte {
	var w wire.Writer
	w.I64(rec.Epoch)
	w.U32(uint32(len(rec.Ops)))
	for _, op := range rec.Ops {
		w.String(op.Kind)
		w.String(op.Cell)
		w.String(op.Net)
		w.U32(uint32(len(op.Loads)))
		for _, ld := range op.Loads {
			w.String(ld)
		}
		w.String(op.To)
	}
	return w.Bytes()
}

func decodeEpochRecord(payload []byte) (EpochRecord, error) {
	r := wire.NewReader(payload)
	rec := EpochRecord{Epoch: r.I64()}
	n := r.Count(17) // kind+cell+net+loads count+to prefixes
	if r.Err() != nil {
		return rec, r.Err()
	}
	rec.Ops = make([]EpochOp, 0, n)
	for i := 0; i < n; i++ {
		op := EpochOp{Kind: r.String(), Cell: r.String(), Net: r.String()}
		nl := r.Count(4)
		if r.Err() != nil {
			return rec, r.Err()
		}
		if nl > 0 {
			op.Loads = make([]string, 0, nl)
			for j := 0; j < nl; j++ {
				op.Loads = append(op.Loads, r.String())
			}
		}
		op.To = r.String()
		rec.Ops = append(rec.Ops, op)
	}
	return rec, r.Done()
}

// ReadLog reads every intact record from the log at path. A missing file is
// an empty log. A torn or corrupt tail (truncated frame, CRC mismatch — the
// signature of a crash mid-append) stops the read and sets truncated; the
// records before it are still returned. A CRC-valid record that fails to
// decode, or epochs out of order, are hard errors: the file is not a crash
// artifact but a corrupt or foreign log.
func ReadLog(path string) (recs []EpochRecord, truncated bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	if err := checkLogHeader(data); err != nil {
		return nil, false, err
	}
	pos := logHeaderSize
	lastEpoch := int64(-1)
	for pos < len(data) {
		if len(data)-pos < 8 {
			return recs, true, nil
		}
		fr := wire.NewReader(data[pos : pos+8])
		length := int(fr.U32())
		crc := fr.U32()
		if length < 0 || length > len(data)-pos-8 {
			return recs, true, nil
		}
		payload := data[pos+8 : pos+8+length]
		if crc32.ChecksumIEEE(payload) != crc {
			return recs, true, nil
		}
		rec, err := decodeEpochRecord(payload)
		if err != nil {
			return nil, false, fmt.Errorf("pack: log record at offset %d: %w", pos, err)
		}
		if rec.Epoch <= lastEpoch {
			return nil, false, fmt.Errorf("pack: log epoch %d after %d at offset %d", rec.Epoch, lastEpoch, pos)
		}
		lastEpoch = rec.Epoch
		recs = append(recs, rec)
		pos += 8 + length
	}
	return recs, false, nil
}

// RewriteLog atomically replaces the log at path with exactly recs — used
// after a rewind or a torn-tail recovery, when the retained history must
// become the new truth before the log reopens for appends.
func RewriteLog(path string, recs []EpochRecord) error {
	var w wire.Writer
	w.Raw([]byte(LogMagic))
	w.U16(logVersion)
	for _, rec := range recs {
		payload := encodeEpochRecord(rec)
		w.U32(uint32(len(payload)))
		w.U32(crc32.ChecksumIEEE(payload))
		w.Raw(payload)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".log-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(w.Bytes()); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

var _ io.Closer = (*Log)(nil)
