// Package pack implements the binary snapshot format for timingd's full
// resident state — the netlist design, the corner libraries with their NLDM
// and LVF tables, the synthesized parasitic trees, the signoff recipe, and
// the frozen SoA timing-graph topology — plus the append-only epoch log of
// committed edits (log.go). Together they give the daemon O(read) warm
// starts that skip text parsing and Kahn levelization, crash recovery by
// replaying the log tail onto the last snapshot, and point-in-time rewind.
//
// Container layout (DESIGN.md §14): a 4-byte magic "NGTP", a u16 format
// version, a u16 section count, then a section table of {tag[4], offset
// u64, length u64, CRC-32 u32} entries followed by the section payloads.
// All integers are little-endian; floats are raw IEEE-754 bits, so decoded
// state is bit-identical to what was saved. Every section is independently
// checksummed (CRC-32, IEEE polynomial); unknown trailing sections are
// ignored so older readers skip newer extensions.
//
// The decoder assumes hostile input: every length prefix is capped by the
// bytes actually remaining (wire.Reader), every index is range-checked, and
// decoded structures are structurally validated before use — FuzzPackDecode
// holds it to "error cleanly, never panic, never over-allocate".
package pack

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"newgame/internal/core"
	"newgame/internal/netlist"
	"newgame/internal/pack/wire"
	"newgame/internal/parasitics"
	"newgame/internal/sta"
	"newgame/internal/units"
)

const (
	// Magic identifies a snapshot pack file.
	Magic = "NGTP"
	// Version is the current format version.
	Version = 1

	headerSize       = 4 + 2 + 2 // magic + version + section count
	sectionEntrySize = 4 + 8 + 8 + 4
)

// Section tags. The table may carry tags this version does not know; they
// are skipped on decode.
const (
	secMeta   = "META" // clock port, base period, seed, epoch
	secDesign = "DSGN" // netlist blueprint
	secLibs   = "LIBS" // deduplicated corner libraries
	secRecipe = "SCEN" // signoff recipe; scenarios reference LIBS by index
	secStack  = "STAK" // BEOL metal stack
	secTopo   = "TOPO" // frozen SoA timing-graph topology
	secTrees  = "TREE" // synthesized per-net RC trees
)

// Snapshot is the full resident state of a timing session at one epoch.
type Snapshot struct {
	Design       *netlist.Design
	Recipe       *core.Recipe
	Stack        *parasitics.Stack
	ClockPort    string
	BasePeriod   units.Ps
	InputArrival units.Ps
	Seed         int64
	// Epoch is the committed-edit epoch the state reflects.
	Epoch int64
	// Topology is the frozen timing graph, or nil if none was saved; a
	// restored server adopts it to skip pointer-walk and levelization.
	Topology *sta.Topology
	// Parasitics is the design's RC trees. Encode saves the tree each net is
	// timed with, in net order; Decode fills them into a table that routes
	// any other net by sta.NewKeyedNetBinder's rule over Stack and Seed.
	Parasitics *sta.Parasitics
}

// Encode serializes the snapshot into the container format.
func Encode(s *Snapshot) ([]byte, error) {
	if s == nil || s.Design == nil || s.Recipe == nil || s.Stack == nil {
		return nil, fmt.Errorf("pack: snapshot missing design, recipe or stack")
	}
	if s.Epoch < 0 {
		return nil, fmt.Errorf("pack: negative epoch %d", s.Epoch)
	}
	libs, libIdx, err := collectLibs(s.Recipe)
	if err != nil {
		return nil, err
	}
	type section struct {
		tag     string
		payload []byte
	}
	var sections []section
	add := func(tag string, encode func(w *wire.Writer) error) error {
		var w wire.Writer
		if err := encode(&w); err != nil {
			return err
		}
		sections = append(sections, section{tag: tag, payload: w.Bytes()})
		return nil
	}
	steps := []struct {
		tag string
		fn  func(w *wire.Writer) error
	}{
		{secMeta, func(w *wire.Writer) error {
			w.String(s.ClockPort)
			w.F64(float64(s.BasePeriod))
			w.F64(float64(s.InputArrival))
			w.I64(s.Seed)
			w.I64(s.Epoch)
			return nil
		}},
		{secDesign, func(w *wire.Writer) error { return encodeDesign(w, s.Design) }},
		{secStack, func(w *wire.Writer) error { encodeStack(w, s.Stack); return nil }},
		{secLibs, func(w *wire.Writer) error { return encodeLibs(w, libs) }},
		{secRecipe, func(w *wire.Writer) error { return encodeRecipe(w, s.Recipe, libIdx) }},
		{secTopo, func(w *wire.Writer) error {
			w.Bool(s.Topology != nil)
			if s.Topology != nil {
				sta.PackTopology(w, s.Topology)
			}
			return nil
		}},
		{secTrees, func(w *wire.Writer) error { encodeTrees(w, s.Design, s.Parasitics); return nil }},
	}
	for _, st := range steps {
		if err := add(st.tag, st.fn); err != nil {
			return nil, err
		}
	}

	var out wire.Writer
	out.U8(Magic[0])
	out.U8(Magic[1])
	out.U8(Magic[2])
	out.U8(Magic[3])
	out.U16(Version)
	out.U16(uint16(len(sections)))
	offset := uint64(headerSize + sectionEntrySize*len(sections))
	for _, sec := range sections {
		out.U8(sec.tag[0])
		out.U8(sec.tag[1])
		out.U8(sec.tag[2])
		out.U8(sec.tag[3])
		out.U64(offset)
		out.U64(uint64(len(sec.payload)))
		out.U32(crc32.ChecksumIEEE(sec.payload))
		offset += uint64(len(sec.payload))
	}
	for _, sec := range sections {
		out.Raw(sec.payload)
	}
	return out.Bytes(), nil
}

// Decode parses a snapshot pack. It tolerates unknown extra sections but
// requires every section this version defines, validates each section's
// CRC, and structurally validates all decoded state; corrupt or hostile
// input yields an error, never a panic.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("pack: input shorter than header")
	}
	if string(data[:4]) != Magic {
		return nil, fmt.Errorf("pack: bad magic %q", data[:4])
	}
	hdr := wire.NewReader(data[4:headerSize])
	version := hdr.U16()
	nSec := int(hdr.U16())
	if version != Version {
		return nil, fmt.Errorf("pack: unsupported format version %d (want %d)", version, Version)
	}
	tableEnd := headerSize + nSec*sectionEntrySize
	if tableEnd > len(data) {
		return nil, fmt.Errorf("pack: section table for %d sections exceeds %d-byte input", nSec, len(data))
	}
	payloads := map[string][]byte{}
	tr := wire.NewReader(data[headerSize:tableEnd])
	for i := 0; i < nSec; i++ {
		tag := string([]byte{tr.U8(), tr.U8(), tr.U8(), tr.U8()})
		off := tr.U64()
		length := tr.U64()
		crc := tr.U32()
		if tr.Err() != nil {
			return nil, tr.Err()
		}
		if off < uint64(tableEnd) || off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("pack: section %q [%d, +%d) outside input", tag, off, length)
		}
		payload := data[off : off+length]
		if crc32.ChecksumIEEE(payload) != crc {
			return nil, fmt.Errorf("pack: section %q checksum mismatch", tag)
		}
		if _, dup := payloads[tag]; dup {
			return nil, fmt.Errorf("pack: duplicate section %q", tag)
		}
		payloads[tag] = payload
	}
	need := func(tag string) (*wire.Reader, error) {
		p, ok := payloads[tag]
		if !ok {
			return nil, fmt.Errorf("pack: missing section %q", tag)
		}
		return wire.NewReader(p), nil
	}

	s := &Snapshot{}
	r, err := need(secMeta)
	if err != nil {
		return nil, err
	}
	s.ClockPort = r.String()
	s.BasePeriod = units.Ps(r.F64())
	s.InputArrival = units.Ps(r.F64())
	s.Seed = r.I64()
	s.Epoch = r.I64()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if s.Epoch < 0 {
		return nil, fmt.Errorf("pack: negative epoch %d", s.Epoch)
	}

	if r, err = need(secDesign); err != nil {
		return nil, err
	}
	if s.Design, err = decodeDesign(r); err != nil {
		return nil, err
	}

	if r, err = need(secStack); err != nil {
		return nil, err
	}
	if s.Stack, err = decodeStack(r); err != nil {
		return nil, err
	}

	if r, err = need(secLibs); err != nil {
		return nil, err
	}
	libs, err := decodeLibs(r)
	if err != nil {
		return nil, err
	}

	if r, err = need(secRecipe); err != nil {
		return nil, err
	}
	if s.Recipe, err = decodeRecipe(r, libs, len(s.Stack.Layers)); err != nil {
		return nil, err
	}

	if r, err = need(secTopo); err != nil {
		return nil, err
	}
	if r.Bool() {
		if s.Topology, err = sta.UnpackTopology(r); err != nil {
			return nil, err
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}

	if r, err = need(secTrees); err != nil {
		return nil, err
	}
	if s.Parasitics, err = decodeTrees(r, s); err != nil {
		return nil, err
	}
	return s, nil
}

// Save encodes the snapshot and writes it to path atomically (temp file in
// the same directory, fsync, rename), returning the byte count written.
func Save(path string, s *Snapshot) (int, error) {
	data, err := Encode(s)
	if err != nil {
		return 0, err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".pack-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	return len(data), nil
}

// Load reads and decodes a snapshot pack from path.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
