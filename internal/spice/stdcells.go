package spice

import "fmt"

// Tech is the transistor-level technology description used by the cell
// builders. Values are representative of the node classes named in the
// paper's experiments, not any foundry's data.
type Tech struct {
	Name string
	VDD  float64
	// NMOS/PMOS threshold magnitudes, V.
	VtN, VtP float64
	// Alpha-power exponents.
	AlphaN, AlphaP float64
	// Saturation transconductance coefficients, mA/V^alpha at W=1.
	KN, KP float64
	// Saturation-voltage coefficients.
	KvN, KvP float64
	// Lambda is channel-length modulation, 1/V.
	Lambda float64
	// CgPerW is gate capacitance per unit width, fF.
	CgPerW float64
	// CdPerW is drain junction capacitance per unit width, fF.
	CdPerW float64
}

// Tech28 approximates a 28nm FDSOI-class device (paper Figure 4 uses a
// foundry 28nm FDSOI NAND2 at 0.9V nominal).
var Tech28 = Tech{
	Name: "t28", VDD: 0.90,
	VtN: 0.33, VtP: 0.33,
	AlphaN: 1.35, AlphaP: 1.40,
	KN: 0.95, KP: 0.55,
	KvN: 0.55, KvP: 0.60,
	Lambda: 0.06,
	CgPerW: 1.1, CdPerW: 0.7,
}

// Tech65 approximates a 65nm low-power bulk device (paper Figure 10 uses a
// 65nm foundry DFF at 1.2V nominal).
var Tech65 = Tech{
	Name: "t65", VDD: 1.20,
	VtN: 0.45, VtP: 0.45,
	AlphaN: 1.60, AlphaP: 1.65,
	KN: 0.40, KP: 0.22,
	KvN: 0.85, KvP: 0.90,
	Lambda: 0.05,
	CgPerW: 1.9, CdPerW: 1.2,
}

// nmos/pmos return device params of width w, with optional Vt shift dvt
// (used by Monte Carlo experiments).
func (t Tech) nmos(w, dvt float64) MOSParams {
	return MOSParams{Kind: NMOS, W: w, Vt: t.VtN + dvt, Alpha: t.AlphaN, K: t.KN, Kv: t.KvN, Lambda: t.Lambda}
}

func (t Tech) pmos(w, dvt float64) MOSParams {
	return MOSParams{Kind: PMOS, W: w, Vt: t.VtP + dvt, Alpha: t.AlphaP, K: t.KP, Kv: t.KvP, Lambda: t.Lambda}
}

// CellOpts adjust a built cell.
type CellOpts struct {
	// WN, WP override device widths (default 1 and 1.6).
	WN, WP float64
	// DVtN, DVtP shift thresholds (Monte Carlo process variation).
	DVtN, DVtP float64
}

func (o CellOpts) fill() CellOpts {
	if o.WN == 0 {
		o.WN = 1
	}
	if o.WP == 0 {
		o.WP = 1.6
	}
	return o
}

// Builder wires standard cells into a circuit against shared vdd/ground
// rails. Create one per circuit.
type Builder struct {
	C   *Circuit
	T   Tech
	vdd string
	seq int
}

// NewBuilder creates a builder, adding the VDD rail source.
func NewBuilder(t Tech) *Builder {
	c := NewCircuit()
	b := &Builder{C: c, T: t, vdd: "vdd"}
	c.V(b.vdd, Ground, DC(t.VDD))
	return b
}

func (b *Builder) fresh(prefix string) string {
	b.seq++
	return fmt.Sprintf("%s_%d", prefix, b.seq)
}

// Inverter adds an inverter from in to out.
func (b *Builder) Inverter(in, out string, o CellOpts) {
	o = o.fill()
	t := b.T
	b.C.M(out, in, Ground, t.nmos(o.WN, o.DVtN))
	b.C.M(out, in, b.vdd, t.pmos(o.WP, o.DVtP))
	// Gate and drain parasitics.
	b.C.C(in, Ground, t.CgPerW*(o.WN+o.WP)*0.5)
	b.C.C(out, Ground, t.CdPerW*(o.WN+o.WP)*0.5)
	// Gate-drain (Miller) coupling.
	b.C.C(in, out, t.CgPerW*(o.WN+o.WP)*0.15)
}

// NAND2 adds a two-input NAND: inputs a (top of the NMOS stack, nearer the
// output) and bb (bottom), output out.
func (b *Builder) NAND2(a, bb, out string, o CellOpts) {
	o = o.fill()
	t := b.T
	mid := b.fresh("nand_mid")
	// Series NMOS stack: widened to compensate stacking.
	b.C.M(out, a, mid, t.nmos(o.WN*2, o.DVtN))
	b.C.M(mid, bb, Ground, t.nmos(o.WN*2, o.DVtN))
	// Parallel PMOS.
	b.C.M(out, a, b.vdd, t.pmos(o.WP, o.DVtP))
	b.C.M(out, bb, b.vdd, t.pmos(o.WP, o.DVtP))
	// Parasitics: gate caps per input, internal node cap, output cap.
	b.C.C(a, Ground, t.CgPerW*(o.WN*2+o.WP)*0.5)
	b.C.C(bb, Ground, t.CgPerW*(o.WN*2+o.WP)*0.5)
	b.C.C(mid, Ground, t.CdPerW*o.WN*2*0.7)
	b.C.C(out, Ground, t.CdPerW*(o.WN*2+2*o.WP)*0.5)
	// Miller coupling input→output (both inputs drive PMOS at the output).
	b.C.C(a, out, t.CgPerW*(o.WN+o.WP)*0.15)
	b.C.C(bb, out, t.CgPerW*o.WP*0.12)
}

// TGate adds a transmission gate between x and y controlled by clk (NMOS
// side) and clkb (PMOS side): conducting when clk is high.
func (b *Builder) TGate(x, y, clk, clkb string, o CellOpts) {
	o = o.fill()
	t := b.T
	b.C.M(x, clk, y, t.nmos(o.WN, o.DVtN))
	b.C.M(x, clkb, y, t.pmos(o.WP*0.8, o.DVtP))
	b.C.C(x, Ground, t.CdPerW*o.WN*0.4)
	b.C.C(y, Ground, t.CdPerW*o.WN*0.4)
}

// FanoutLoad attaches n unit inverter gate loads to node.
func (b *Builder) FanoutLoad(node string, n int) {
	for i := 0; i < n; i++ {
		sink := b.fresh("load")
		b.Inverter(node, sink, CellOpts{})
		// Terminate each load's output with a small cap so it has work to do.
		b.C.C(sink, Ground, b.T.CdPerW)
	}
}

// DFFNodes names the internal observation points of a built flip-flop.
type DFFNodes struct {
	CKB, CKI   string // internal clock buffer taps (ckb = inverted clock)
	M1, M2, M3 string // master latch nodes
	S1, QB     string // slave latch nodes
	Q          string
}

// DFF adds a positive-edge master–slave flip-flop built from transmission
// gates and inverters: the textbook topology whose setup/hold/c2q
// interdependency the paper's Figure 10 measures.
//
// Master (transparent while clock low): d —TG1→ m1 —INV→ m2 —INV→ m3, with
// feedback TG2 (on when clock high) m3→m1. Slave (transparent while clock
// high): m3 —TG3→ s1 —INV→ qb —INV→ q, feedback TG4 (on when clock low)
// from an extra inverter qb→s1.
func (b *Builder) DFF(d, ck, q string, o CellOpts) DFFNodes {
	o = o.fill()
	n := DFFNodes{
		CKB: b.fresh("ckb"), CKI: b.fresh("cki"),
		M1: b.fresh("m1"), M2: b.fresh("m2"), M3: b.fresh("m3"),
		S1: b.fresh("s1"), QB: b.fresh("qb"), Q: q,
	}
	// Local clock buffers: ckb = !ck, cki = !ckb (delayed true clock).
	b.Inverter(ck, n.CKB, o)
	b.Inverter(n.CKB, n.CKI, o)
	// Master.
	b.TGate(d, n.M1, n.CKB, n.CKI, o) // on while clock low
	b.Inverter(n.M1, n.M2, o)
	b.Inverter(n.M2, n.M3, o)
	fb := CellOpts{WN: o.WN * 0.5, WP: o.WP * 0.5, DVtN: o.DVtN, DVtP: o.DVtP}
	b.TGate(n.M3, n.M1, n.CKI, n.CKB, fb) // feedback while clock high
	// Slave takes the non-inverted master node (m3 = D while the master is
	// transparent) so that Q follows D.
	b.TGate(n.M3, n.S1, n.CKI, n.CKB, o) // on while clock high
	b.Inverter(n.S1, n.QB, o)
	b.Inverter(n.QB, q, CellOpts{WN: o.WN * 2, WP: o.WP * 2, DVtN: o.DVtN, DVtP: o.DVtP})
	// Slave feedback.
	sfb := b.fresh("sfb")
	b.Inverter(n.QB, sfb, fb)
	b.TGate(sfb, n.S1, n.CKB, n.CKI, fb) // feedback while clock low
	return n
}

// InverterChain builds a chain of n inverters from in, returning the output
// node. Per-stage Vt shifts may be supplied for Monte Carlo runs (nil means
// nominal; otherwise dvt[i] applies to stage i's devices).
func (b *Builder) InverterChain(in string, n int, dvt []float64) string {
	node := in
	for i := 0; i < n; i++ {
		next := b.fresh("ch")
		o := CellOpts{}
		if dvt != nil {
			o.DVtN, o.DVtP = dvt[i], dvt[i]
		}
		b.Inverter(node, next, o)
		node = next
	}
	return node
}
