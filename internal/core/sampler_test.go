package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/faultmodel"
	"repro/internal/sass"
	"repro/internal/specaccel"
)

// The three functions below are the per-draw linear walks the indexed
// Sampler replaced, kept verbatim as reference oracles: each draw walks
// every profile record (and, when resolving, every static site of the
// record it lands in). The differential tests hold the Sampler to their
// exact parameters, error texts and RNG consumption.

// oracleSelect is the unresolved walk.
func oracleSelect(p *core.Profile, g sass.Group, bf core.BitFlipModel, rng *rand.Rand) (*core.TransientParams, error) {
	total := p.TotalInstrs(g)
	if total == 0 {
		return nil, fmt.Errorf("core: profile of %q has no %v instructions to inject", p.Program, g)
	}
	n := uint64(rng.Int63n(int64(total))) // 0-based index into the group's executions
	var cum uint64
	for i := range p.Records {
		r := &p.Records[i]
		t := r.Total(g)
		if n < cum+t {
			params := &core.TransientParams{
				Group:           g,
				BitFlip:         bf,
				KernelName:      r.Kernel,
				KernelCount:     r.LaunchIndex,
				InstrCount:      n - cum,
				DestRegSelect:   rng.Float64(),
				BitPatternValue: rng.Float64(),
			}
			if err := params.Validate(); err != nil {
				return nil, err
			}
			return params, nil
		}
		cum += t
	}
	return nil, fmt.Errorf("core: internal error: fault index %d beyond profile total %d", n, total)
}

// oracleSelectSite is the site-resolved walk.
func oracleSelectSite(p *core.Profile, g sass.Group, bf core.BitFlipModel, rng *rand.Rand) (*core.TransientParams, error) {
	total := p.TotalInstrs(g)
	if total == 0 {
		return nil, fmt.Errorf("core: profile of %q has no %v instructions to inject", p.Program, g)
	}
	n := uint64(rng.Int63n(int64(total))) // 0-based index into the group's executions
	var cum uint64
	for i := range p.Records {
		r := &p.Records[i]
		t := r.Total(g)
		if n >= cum+t {
			cum += t
			continue
		}
		if !r.HasSites() {
			return nil, fmt.Errorf("core: profile record %s;%d has no site data; re-profile or use SelectTransientFault",
				r.Kernel, r.LaunchIndex)
		}
		rem := n - cum
		for idx, c := range r.SiteCounts {
			if !sass.GroupContains(g, r.SiteOps[idx]) {
				continue
			}
			if rem >= c {
				rem -= c
				continue
			}
			params := &core.TransientParams{
				Group:           g,
				BitFlip:         bf,
				KernelName:      r.Kernel,
				KernelCount:     r.LaunchIndex,
				InstrCount:      rem,
				SiteResolved:    true,
				StaticInstrIdx:  idx,
				DestRegSelect:   rng.Float64(),
				BitPatternValue: rng.Float64(),
			}
			if err := params.Validate(); err != nil {
				return nil, err
			}
			return params, nil
		}
		return nil, fmt.Errorf("core: profile record %s;%d: site counts sum below the record total for %v",
			r.Kernel, r.LaunchIndex, g)
	}
	return nil, fmt.Errorf("core: internal error: fault index %d beyond profile total %d", n, total)
}

// oracleSelectFiltered is the site-resolved walk restricted to opcodes
// accepted by eligible.
func oracleSelectFiltered(p *core.Profile, g sass.Group, bf core.BitFlipModel, eligible func(sass.Op) bool, rng *rand.Rand) (*core.TransientParams, error) {
	include := func(op sass.Op) bool {
		return sass.GroupContains(g, op) && eligible(op)
	}
	recTotal := func(r *core.KernelRecord) (uint64, error) {
		if !r.HasSites() {
			return 0, fmt.Errorf("core: profile record %s;%d has no site data; filtered selection needs a site-resolved profile",
				r.Kernel, r.LaunchIndex)
		}
		var t uint64
		for idx, c := range r.SiteCounts {
			if include(r.SiteOps[idx]) {
				t += c
			}
		}
		return t, nil
	}
	var total uint64
	for i := range p.Records {
		t, err := recTotal(&p.Records[i])
		if err != nil {
			return nil, err
		}
		total += t
	}
	if total == 0 {
		return nil, fmt.Errorf("core: profile of %q has no eligible %v instructions for this fault model", p.Program, g)
	}
	n := uint64(rng.Int63n(int64(total))) // 0-based index into the eligible executions
	var cum uint64
	for i := range p.Records {
		r := &p.Records[i]
		t, _ := recTotal(r)
		if n >= cum+t {
			cum += t
			continue
		}
		rem := n - cum
		for idx, c := range r.SiteCounts {
			if !include(r.SiteOps[idx]) {
				continue
			}
			if rem >= c {
				rem -= c
				continue
			}
			params := &core.TransientParams{
				Group:           g,
				BitFlip:         bf,
				KernelName:      r.Kernel,
				KernelCount:     r.LaunchIndex,
				InstrCount:      rem,
				SiteResolved:    true,
				StaticInstrIdx:  idx,
				DestRegSelect:   rng.Float64(),
				BitPatternValue: rng.Float64(),
			}
			if err := params.Validate(); err != nil {
				return nil, err
			}
			return params, nil
		}
		return nil, fmt.Errorf("core: profile record %s;%d: site counts sum below the eligible total for %v",
			r.Kernel, r.LaunchIndex, g)
	}
	return nil, fmt.Errorf("core: internal error: fault index %d beyond eligible total %d", n, total)
}

// selectionMode pairs one Sampler configuration with its oracle walk.
type selectionMode struct {
	name     string
	resolve  bool
	eligible func(sass.Op) bool
	oracle   func(p *core.Profile, g sass.Group, bf core.BitFlipModel, rng *rand.Rand) (*core.TransientParams, error)
}

// selectionModes returns the unresolved and resolved modes plus one filtered
// mode per registered fault model.
func selectionModes(t testing.TB) []selectionMode {
	modes := []selectionMode{
		{name: "unresolved", oracle: oracleSelect},
		{name: "resolved", resolve: true, oracle: oracleSelectSite},
	}
	for _, name := range faultmodel.Names() {
		m, err := faultmodel.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		modes = append(modes, selectionMode{
			name:     "filtered-" + name,
			eligible: m.EligibleOp,
			oracle: func(p *core.Profile, g sass.Group, bf core.BitFlipModel, rng *rand.Rand) (*core.TransientParams, error) {
				return oracleSelectFiltered(p, g, bf, m.EligibleOp, rng)
			},
		})
	}
	return modes
}

// assertSamplerMatches draws n times from the oracle and from one Sampler,
// each on its own RNG seeded identically, and requires identical parameters
// or identical error texts on every draw. Draws continue past errors, so the
// two streams must also consume randomness identically on error paths.
func assertSamplerMatches(t *testing.T, p *core.Profile, g sass.Group, m selectionMode, seed int64, n int) {
	t.Helper()
	smp := core.NewSampler(p, g, m.resolve, m.eligible)
	orng := rand.New(rand.NewSource(seed))
	srng := rand.New(rand.NewSource(seed))
	bf := core.BitFlipModel(1 + seed%4)
	for i := 0; i < n; i++ {
		want, werr := m.oracle(p, g, bf, orng)
		got, gerr := smp.Draw(bf, srng)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("%s/%v/%s draw %d: error %v, oracle %v", p.Program, g, m.name, i, gerr, werr)
		}
		if werr == nil && got != *want {
			t.Fatalf("%s/%v/%s draw %d:\n got %+v\nwant %+v", p.Program, g, m.name, i, got, *want)
		}
	}
	if orng.Int63() != srng.Int63() {
		t.Fatalf("%s/%v/%s: RNG streams diverged after %d draws", p.Program, g, m.name, n)
	}
}

// raceEnabled is set by race_test.go under the race detector, whose
// instrumentation makes the oracle walks too slow for full-length runs.
var raceEnabled bool

// TestSamplerDifferentialSpecACCEL holds the Sampler to the oracle walks on
// every bundled SpecACCEL profile, for four groups and every selection mode.
func TestSamplerDifferentialSpecACCEL(t *testing.T) {
	draws := 2000
	if testing.Short() || raceEnabled {
		draws = 200
	}
	modes := selectionModes(t)
	for _, w := range specaccel.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			profile, _, err := campaign.Runner{}.Profile(w, core.Exact)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range []sass.Group{sass.GroupGPPR, sass.GroupGP, sass.GroupFP32, sass.GroupLD} {
				for _, m := range modes {
					assertSamplerMatches(t, profile, g, m, int64(g)*31+int64(len(m.name)), draws)
				}
			}
		})
	}
}

// TestSamplerDifferentialEdgeCases covers profile shapes the bundled
// programs do not produce.
func TestSamplerDifferentialEdgeCases(t *testing.T) {
	fadd := sass.MustOp("FADD")
	iadd := sass.MustOp("IADD")
	ldg := sass.MustOp("LDG")
	stg := sass.MustOp("STG")
	exit := sass.MustOp("EXIT")
	cases := map[string]*core.Profile{
		"zero-count-records": {Program: "z", Records: []core.KernelRecord{
			{Kernel: "a", OpCounts: map[sass.Op]uint64{}},
			{Kernel: "b", OpCounts: map[sass.Op]uint64{fadd: 0, iadd: 0},
				SiteOps: []sass.Op{fadd, iadd}, SiteCounts: []uint64{0, 0}},
			{Kernel: "c", LaunchIndex: 1, OpCounts: map[sass.Op]uint64{fadd: 7, ldg: 3},
				SiteOps: []sass.Op{ldg, fadd, exit}, SiteCounts: []uint64{3, 7, 1}},
			{Kernel: "d", OpCounts: map[sass.Op]uint64{iadd: 0},
				SiteOps: []sass.Op{iadd}, SiteCounts: []uint64{0}},
			{Kernel: "e", LaunchIndex: 2, OpCounts: map[sass.Op]uint64{iadd: 5, stg: 2},
				SiteOps: []sass.Op{iadd, stg, iadd}, SiteCounts: []uint64{2, 2, 3}},
		}},
		"records-without-sites": {Program: "n", Records: []core.KernelRecord{
			{Kernel: "a", OpCounts: map[sass.Op]uint64{fadd: 10, iadd: 4},
				SiteOps: []sass.Op{fadd, iadd}, SiteCounts: []uint64{10, 4}},
			{Kernel: "b", OpCounts: map[sass.Op]uint64{fadd: 6, iadd: 6, ldg: 2}},
			{Kernel: "c", OpCounts: map[sass.Op]uint64{ldg: 5},
				SiteOps: []sass.Op{ldg}, SiteCounts: []uint64{5}},
		}},
		"sites-sum-below-total": {Program: "s", Records: []core.KernelRecord{
			{Kernel: "a", OpCounts: map[sass.Op]uint64{fadd: 20, iadd: 10, ldg: 4},
				SiteOps: []sass.Op{fadd, iadd, ldg}, SiteCounts: []uint64{12, 10, 1}},
			{Kernel: "b", OpCounts: map[sass.Op]uint64{iadd: 8},
				SiteOps: []sass.Op{fadd, iadd}, SiteCounts: []uint64{0, 8}},
		}},
		"empty-group": {Program: "e", Records: []core.KernelRecord{
			{Kernel: "a", OpCounts: map[sass.Op]uint64{stg: 9, exit: 1},
				SiteOps: []sass.Op{stg, exit}, SiteCounts: []uint64{9, 1}},
		}},
		"no-records": {Program: "0"},
	}
	modes := selectionModes(t)
	for name, p := range cases {
		for _, g := range []sass.Group{sass.GroupGPPR, sass.GroupGP, sass.GroupFP32, sass.GroupLD} {
			for _, m := range modes {
				t.Run(fmt.Sprintf("%s/%v/%s", name, g, m.name), func(t *testing.T) {
					assertSamplerMatches(t, p, g, m, 11, 2000)
				})
			}
		}
	}
}

// TestSamplerConcurrentDraws: one Sampler serves concurrent draws with
// independent RNGs, as a ShardPlan's does when shards run in parallel.
func TestSamplerConcurrentDraws(t *testing.T) {
	w, err := specaccel.ByName("303.ostencil")
	if err != nil {
		t.Fatal(err)
	}
	profile, _, err := campaign.Runner{}.Profile(w, core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	smp := core.NewSampler(profile, sass.GroupGPPR, true, nil)
	draw := func(seed int64) []core.TransientParams {
		rng := rand.New(rand.NewSource(seed))
		out := make([]core.TransientParams, 300)
		for i := range out {
			p, err := smp.Draw(core.FlipSingleBit, rng)
			if err != nil {
				panic(err)
			}
			out[i] = p
		}
		return out
	}
	const workers = 4
	var want, got [workers][]core.TransientParams
	for i := range want {
		want[i] = draw(int64(i))
	}
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = draw(int64(i))
		}(i)
	}
	wg.Wait()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("concurrent draws differ from sequential draws")
	}
}
