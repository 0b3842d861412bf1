package core

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/sass"
)

// Sampler draws transient injection sites from a profile exactly as the
// paper describes: choose a random n from 1..N over the profiled
// thread-level executions of a group, then translate n into the
// <kernel name, kernel count, instruction count> tuple. It is built once per
// profile and selection mode and holds prefix sums over the records' group
// totals (and, when resolving sites, over each record's included static
// sites), so each draw is one Int63n, a binary search over records, a binary
// search over sites when resolving, and the two Float64s that pick the
// destination register and bit pattern. A Sampler is immutable: concurrent
// draws with distinct RNGs are safe as long as the profile is not mutated.
type Sampler struct {
	p       *Profile
	g       sass.Group
	resolve bool
	// recEnd[i] counts the eligible executions in records [0, i].
	recEnd []uint64
	// With site resolution on, record i's included static sites are
	// entries [siteOff[i], siteOff[i+1]) of siteEnd (the record-local
	// running count through each site) and siteIdx (its static index).
	siteOff []int
	siteEnd []uint64
	siteIdx []int
	// err is a construction-time failure; every Draw returns it before
	// consuming randomness, as the per-draw walks it replaces did.
	err error
}

// NewSampler indexes a profile for selection over group g.
//
// With resolve false, draws range over each record's per-opcode counts and
// leave the static instruction unresolved. With resolve true, each draw also
// names the static instruction the dynamic index lands on, interpreting the
// index in static-instruction order within the record; the injector in site
// mode counts executions of that one instruction, so a fixed seed maps to a
// fixed site either way. That lets consumers such as the campaign pruner
// reason statically about the target. It requires site data on every record
// a draw lands in (a current profiler run, or a profile file with "# sites:"
// lines).
//
// A non-nil eligible restricts selection to the group's opcodes it accepts,
// so every draw is valid for a fault model that cannot target arbitrary
// instructions. It implies resolve, draws over the eligible executions only,
// and needs site data on every record. All modes consume the same RNG shape
// (one Int63n, two Float64), keeping per-experiment stream alignment across
// modes and models.
func NewSampler(p *Profile, g sass.Group, resolve bool, eligible func(sass.Op) bool) *Sampler {
	s := &Sampler{p: p, g: g, resolve: resolve || eligible != nil, recEnd: make([]uint64, len(p.Records))}
	if s.resolve {
		var capacity int
		for i := range p.Records {
			capacity += len(p.Records[i].SiteCounts)
		}
		s.siteOff = make([]int, len(p.Records)+1)
		s.siteEnd = make([]uint64, 0, capacity)
		s.siteIdx = make([]int, 0, capacity)
	}
	var cum uint64
	for i := range p.Records {
		r := &p.Records[i]
		var sites uint64
		if s.resolve {
			for idx, c := range r.SiteCounts {
				op := r.SiteOps[idx]
				if c == 0 || !sass.GroupContains(g, op) || (eligible != nil && !eligible(op)) {
					continue
				}
				sites += c
				s.siteEnd = append(s.siteEnd, sites)
				s.siteIdx = append(s.siteIdx, idx)
			}
			s.siteOff[i+1] = len(s.siteEnd)
		}
		if eligible == nil {
			cum += r.Total(g)
		} else {
			if !r.HasSites() && s.err == nil {
				s.err = fmt.Errorf("core: profile record %s;%d has no site data; filtered selection needs a site-resolved profile",
					r.Kernel, r.LaunchIndex)
			}
			cum += sites
		}
		s.recEnd[i] = cum
	}
	if cum == 0 && s.err == nil {
		if eligible != nil {
			s.err = fmt.Errorf("core: profile of %q has no eligible %v instructions for this fault model", p.Program, g)
		} else {
			s.err = fmt.Errorf("core: profile of %q has no %v instructions to inject", p.Program, g)
		}
	}
	return s
}

// Draw samples one injection site.
func (s *Sampler) Draw(bf BitFlipModel, rng *rand.Rand) (TransientParams, error) {
	if s.err != nil {
		return TransientParams{}, s.err
	}
	n := uint64(rng.Int63n(int64(s.recEnd[len(s.recEnd)-1]))) // 0-based index into the eligible executions
	i := sort.Search(len(s.recEnd), func(i int) bool { return s.recEnd[i] > n })
	r := &s.p.Records[i]
	if i > 0 {
		n -= s.recEnd[i-1]
	}
	params := TransientParams{Group: s.g, BitFlip: bf, KernelName: r.Kernel, KernelCount: r.LaunchIndex, InstrCount: n}
	if s.resolve {
		if !r.HasSites() {
			return TransientParams{}, fmt.Errorf("core: profile record %s;%d has no site data; re-profile or use SelectTransientFault",
				r.Kernel, r.LaunchIndex)
		}
		lo, hi := s.siteOff[i], s.siteOff[i+1]
		ends := s.siteEnd[lo:hi]
		j := sort.Search(len(ends), func(j int) bool { return ends[j] > n })
		if j == len(ends) {
			return TransientParams{}, fmt.Errorf("core: profile record %s;%d: site counts sum below the record total for %v",
				r.Kernel, r.LaunchIndex, s.g)
		}
		if j > 0 {
			params.InstrCount -= ends[j-1]
		}
		params.SiteResolved = true
		params.StaticInstrIdx = s.siteIdx[lo+j]
	}
	params.DestRegSelect = rng.Float64()
	params.BitPatternValue = rng.Float64()
	if err := params.Validate(); err != nil {
		return TransientParams{}, err
	}
	return params, nil
}

// SelectTransientFault samples one injection site uniformly from the
// profile's dynamic instructions of the requested group, leaving the static
// instruction unresolved. It indexes the profile for a single draw; callers
// selecting many faults from one profile should build a Sampler once.
func SelectTransientFault(p *Profile, g sass.Group, bf BitFlipModel, rng *rand.Rand) (*TransientParams, error) {
	params, err := NewSampler(p, g, false, nil).Draw(bf, rng)
	if err != nil {
		return nil, err
	}
	return &params, nil
}

// SelectPermanentFaults enumerates one permanent-fault experiment per
// executed opcode (the campaign described in Section IV-B: "permanent fault
// experiments can be skipped for unused opcodes"). The SM, lane, and mask
// are drawn per experiment from rng.
func SelectPermanentFaults(p *Profile, family sass.Family, numSMs int, bf BitFlipModel, rng *rand.Rand) ([]*PermanentParams, error) {
	set := sass.OpcodeSet(family)
	idByOp := make(map[sass.Op]int, len(set))
	for i, op := range set {
		idByOp[op] = i
	}
	var out []*PermanentParams
	for _, op := range p.ExecutedOpcodes() {
		id, ok := idByOp[op]
		if !ok {
			return nil, fmt.Errorf("core: profiled opcode %s is not in the %v opcode set", op, family)
		}
		params := &PermanentParams{
			SMID:     rng.Intn(numSMs),
			Lane:     rng.Intn(32),
			BitMask:  bf.Mask(rng.Float64(), 0),
			OpcodeID: id,
		}
		if params.BitMask == 0 {
			params.BitMask = 1 // ZERO_VALUE has no static mask; fall back to bit 0
		}
		if err := params.Validate(family, numSMs); err != nil {
			return nil, err
		}
		out = append(out, params)
	}
	return out, nil
}
