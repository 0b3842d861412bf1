package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sass"
)

func TestSelectTransientFaultBounds(t *testing.T) {
	p := sampleProfile()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		params, err := SelectTransientFault(p, sass.GroupGPPR, FlipSingleBit, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := params.Validate(); err != nil {
			t.Fatalf("selected invalid params: %v", err)
		}
		// The instruction count must be within the selected record's
		// group total.
		var rec *KernelRecord
		for j := range p.Records {
			r := &p.Records[j]
			if r.Kernel == params.KernelName && r.LaunchIndex == params.KernelCount {
				rec = r
			}
		}
		if rec == nil {
			t.Fatalf("selected nonexistent dynamic kernel %s/%d",
				params.KernelName, params.KernelCount)
		}
		if params.InstrCount >= rec.Total(sass.GroupGPPR) {
			t.Fatalf("instruction count %d beyond record total %d",
				params.InstrCount, rec.Total(sass.GroupGPPR))
		}
	}
}

// TestSelectUniformity: selection probability is proportional to each
// dynamic kernel's share of eligible instructions.
func TestSelectUniformity(t *testing.T) {
	fadd := sass.MustOp("FADD")
	p := &Profile{
		Program: "u",
		Mode:    Exact,
		Records: []KernelRecord{
			{Kernel: "small", LaunchIndex: 0, OpCounts: map[sass.Op]uint64{fadd: 100}},
			{Kernel: "big", LaunchIndex: 0, OpCounts: map[sass.Op]uint64{fadd: 300}},
		},
	}
	rng := rand.New(rand.NewSource(9))
	const n = 4000
	hits := 0
	for i := 0; i < n; i++ {
		params, err := SelectTransientFault(p, sass.GroupFP32, FlipSingleBit, rng)
		if err != nil {
			t.Fatal(err)
		}
		if params.KernelName == "big" {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.75) > 0.03 {
		t.Fatalf("big kernel selected %.3f of the time, want ~0.75", got)
	}
}

func TestSelectEmptyGroup(t *testing.T) {
	p := sampleProfile() // has no FP16/half and no texture loads beyond LDG
	rng := rand.New(rand.NewSource(1))
	// Remove loads to make G_LD empty.
	for i := range p.Records {
		delete(p.Records[i].OpCounts, sass.MustOp("LDG"))
	}
	if _, err := SelectTransientFault(p, sass.GroupLD, FlipSingleBit, rng); err == nil {
		t.Fatal("selection from an empty group succeeded")
	}
}

func TestSelectPermanentFaults(t *testing.T) {
	p := sampleProfile()
	rng := rand.New(rand.NewSource(2))
	faults, err := SelectPermanentFaults(p, sass.FamilyVolta, 8, FlipSingleBit, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != len(p.ExecutedOpcodes()) {
		t.Fatalf("%d faults for %d executed opcodes", len(faults), len(p.ExecutedOpcodes()))
	}
	set := sass.OpcodeSet(sass.FamilyVolta)
	seen := make(map[sass.Op]bool)
	for _, f := range faults {
		if err := f.Validate(sass.FamilyVolta, 8); err != nil {
			t.Fatalf("invalid fault: %v", err)
		}
		if f.BitMask == 0 {
			t.Fatal("permanent fault with a zero mask is a no-op")
		}
		op := set[f.OpcodeID]
		if seen[op] {
			t.Fatalf("opcode %v selected twice", op)
		}
		seen[op] = true
	}
	for _, op := range p.ExecutedOpcodes() {
		if !seen[op] {
			t.Fatalf("executed opcode %v has no fault", op)
		}
	}
}

func TestSelectDeterminism(t *testing.T) {
	p := sampleProfile()
	a, err := SelectTransientFault(p, sass.GroupGP, RandomValue, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SelectTransientFault(p, sass.GroupGP, RandomValue, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("same seed selected different faults:\n%+v\n%+v", *a, *b)
	}
}

// siteProfile builds a profile carrying the per-static-instruction
// breakdown that site-resolved selection needs.
func siteProfile() *Profile {
	fadd := sass.MustOp("FADD")
	iadd := sass.MustOp("IADD")
	stg := sass.MustOp("STG")
	exit := sass.MustOp("EXIT")
	return &Profile{
		Program: "prog",
		Mode:    Exact,
		Records: []KernelRecord{
			{
				Kernel: "k1", LaunchIndex: 0,
				OpCounts:   map[sass.Op]uint64{fadd: 130, iadd: 50, stg: 30, exit: 10},
				SiteOps:    []sass.Op{fadd, iadd, fadd, stg, exit},
				SiteCounts: []uint64{100, 50, 30, 30, 10},
			},
			{
				Kernel: "k2", LaunchIndex: 0,
				OpCounts:   map[sass.Op]uint64{fadd: 40, exit: 8},
				SiteOps:    []sass.Op{fadd, exit},
				SiteCounts: []uint64{40, 8},
			},
		},
	}
}

// selectSite draws one site-resolved fault from a fresh Sampler.
func selectSite(p *Profile, g sass.Group, bf BitFlipModel, rng *rand.Rand) (TransientParams, error) {
	return NewSampler(p, g, true, nil).Draw(bf, rng)
}

// TestSelectSiteSameStream: site-resolved selection consumes the RNG
// stream exactly like unresolved selection, so a fixed seed picks the same
// dynamic kernel and the same register/bit-pattern draws.
func TestSelectSiteSameStream(t *testing.T) {
	p := siteProfile()
	for seed := int64(0); seed < 200; seed++ {
		plain, err := SelectTransientFault(p, sass.GroupGP, FlipSingleBit, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		site, err := selectSite(p, sass.GroupGP, FlipSingleBit, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if !site.SiteResolved {
			t.Fatal("site selection not marked SiteResolved")
		}
		if site.KernelName != plain.KernelName || site.KernelCount != plain.KernelCount {
			t.Fatalf("seed %d: site picked %s/%d, plain %s/%d", seed,
				site.KernelName, site.KernelCount, plain.KernelName, plain.KernelCount)
		}
		if site.DestRegSelect != plain.DestRegSelect || site.BitPatternValue != plain.BitPatternValue {
			t.Fatalf("seed %d: RNG streams diverged", seed)
		}
		// The resolved site must be an in-range instruction of the group.
		var rec *KernelRecord
		for i := range p.Records {
			if p.Records[i].Kernel == site.KernelName && p.Records[i].LaunchIndex == site.KernelCount {
				rec = &p.Records[i]
			}
		}
		if site.StaticInstrIdx < 0 || site.StaticInstrIdx >= len(rec.SiteOps) {
			t.Fatalf("seed %d: static index %d out of range", seed, site.StaticInstrIdx)
		}
		op := rec.SiteOps[site.StaticInstrIdx]
		if !sass.GroupContains(sass.GroupGP, op) {
			t.Fatalf("seed %d: resolved site opcode %v outside group", seed, op)
		}
		if site.InstrCount >= rec.SiteCounts[site.StaticInstrIdx] {
			t.Fatalf("seed %d: per-site count %d beyond site total %d", seed,
				site.InstrCount, rec.SiteCounts[site.StaticInstrIdx])
		}
	}
}

func TestSelectSiteDeterminism(t *testing.T) {
	p := siteProfile()
	a, err := selectSite(p, sass.GroupGPPR, FlipSingleBit, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := selectSite(p, sass.GroupGPPR, FlipSingleBit, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed selected different faults:\n%+v\n%+v", a, b)
	}
}

func TestSelectSiteRequiresSiteData(t *testing.T) {
	p := sampleProfile() // no site breakdown
	if _, err := selectSite(p, sass.GroupGP, FlipSingleBit, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("site selection succeeded on a profile without site data")
	}
}
