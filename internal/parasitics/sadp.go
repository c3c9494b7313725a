package parasitics

import "math"

// PatterningKind is how a wire segment's two line edges are defined in
// spacer-is-dielectric (SID) self-aligned double patterning — the four
// cases of paper Figure 5(c). Which case a wire lands in depends on its
// position in the mandrel/spacer/block decomposition, not on the designer.
type PatterningKind int

const (
	// MandrelMandrel: both line edges defined by mandrel edges.
	MandrelMandrel PatterningKind = iota
	// SpacerSpacer: both line edges defined by spacer edges.
	SpacerSpacer
	// MandrelBlock: one edge mandrel, one edge block (cut) mask.
	MandrelBlock
	// SpacerBlock: one edge spacer, one edge block mask.
	SpacerBlock
)

func (k PatterningKind) String() string {
	switch k {
	case MandrelMandrel:
		return "mandrel/mandrel"
	case SpacerSpacer:
		return "spacer/spacer"
	case MandrelBlock:
		return "mandrel/block"
	default:
		return "spacer/block"
	}
}

// AllPatternings lists the four SID-SADP cases in the paper's order.
var AllPatternings = []PatterningKind{MandrelMandrel, SpacerSpacer, MandrelBlock, SpacerBlock}

// SADPSigmas holds the primitive variation sources of an SADP process, all
// in nm (1σ): mandrel CD, spacer width, block (cut) mask CD, and
// mandrel-to-block overlay.
type SADPSigmas struct {
	Mandrel, Spacer, Block, MandrelBlock float64
}

// CDSigma returns the line-CD σ (nm) of a wire patterned in the given SID
// case, per the published variance decompositions (paper Fig 5c):
//
//	(i)   both edges mandrel:      σ² = σM²
//	(ii)  both edges spacer:       σ² = σM² + 2σS²
//	(iii) mandrel + block edge:    σ² = (0.5σM)² + σ(M−B)² + (0.5σB)²
//	(iv)  spacer + block edge:     σ² = (0.5σM)² + σS² + σ(M−B)² + (0.5σB)²
func (s SADPSigmas) CDSigma(kind PatterningKind) float64 {
	switch kind {
	case MandrelMandrel:
		return s.Mandrel
	case SpacerSpacer:
		return math.Sqrt(s.Mandrel*s.Mandrel + 2*s.Spacer*s.Spacer)
	case MandrelBlock:
		return math.Sqrt(0.25*s.Mandrel*s.Mandrel + s.MandrelBlock*s.MandrelBlock + 0.25*s.Block*s.Block)
	default: // SpacerBlock
		return math.Sqrt(0.25*s.Mandrel*s.Mandrel + s.Spacer*s.Spacer +
			s.MandrelBlock*s.MandrelBlock + 0.25*s.Block*s.Block)
	}
}

// DefaultSADP16 is a representative 16nm-class SADP variation budget (nm).
var DefaultSADP16 = SADPSigmas{Mandrel: 1.0, Spacer: 0.7, Block: 1.2, MandrelBlock: 1.1}

// RCImpact converts a CD σ into relative R and C sigmas for a wire of the
// given nominal CD (nm). Resistance goes as 1/width so σR/R ≈ σCD/CD;
// ground+coupling cap is roughly affine in width with sensitivity kC < 1.
func RCImpact(cdSigmaNm, nominalCDNm float64) (rSigmaRel, cSigmaRel float64) {
	rel := cdSigmaNm / nominalCDNm
	return rel, 0.55 * rel
}

// BimodalCD models LELE double-patterning CD populations (paper refs [9],
// [14]): mask-A and mask-B wires form two CD populations offset by ±shift
// around the target, each with its own sigma.
type BimodalCD struct {
	TargetNm float64
	ShiftNm  float64 // mask A at +shift, mask B at −shift
	SigmaNm  float64
}

// PopulationSigma returns the standard deviation of the merged two-mask CD
// population: √(σ² + shift²) — the bimodal penalty over a single-mask
// process.
func (b BimodalCD) PopulationSigma() float64 {
	return math.Sqrt(b.SigmaNm*b.SigmaNm + b.ShiftNm*b.ShiftNm)
}
