package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/sass"
)

// TransientParams is the transient-fault parameter file (Table II): two
// fault-type parameters and five specific-target parameters. Each parameter
// occupies one line of the parameter file.
type TransientParams struct {
	// Group is the arch state id: which instruction subset to inject.
	Group sass.Group
	// BitFlip selects the bit-error pattern.
	BitFlip BitFlipModel
	// KernelName names the target GPU kernel.
	KernelName string
	// KernelCount selects the (n+1)th dynamic instance of the kernel;
	// 0 is the first.
	KernelCount int
	// InstrCount selects the (n+1)th eligible thread-level dynamic
	// execution within that kernel instance; 0 is the first.
	InstrCount uint64
	// DestRegSelect in [0,1) chooses which destination register to corrupt
	// when the instruction writes more than one.
	DestRegSelect float64
	// BitPatternValue in [0,1) parameterizes the bit-error mask.
	BitPatternValue float64

	// SiteResolved marks a parameter set whose selection was resolved to a
	// static instruction at selection time (a site-resolving Sampler):
	// StaticInstrIdx names the instruction and InstrCount counts eligible
	// executions of that instruction only, rather than of the whole group.
	// The zero value preserves the paper's dynamic-index semantics.
	SiteResolved bool
	// StaticInstrIdx is the target's static instruction index within the
	// kernel; meaningful only when SiteResolved is set.
	StaticInstrIdx int

	// Thread optionally restricts eligible executions to one thread — the
	// paper's "targeting a specified thread" future direction. Nil means
	// any thread.
	Thread *ThreadSelector

	// MultiRegCount, when greater than one, corrupts that many consecutive
	// destination registers starting at the selected one — the paper's
	// "corrupting multiple registers" future direction (Section V). Zero
	// and one both mean the paper's single-register model.
	MultiRegCount int
}

// ThreadSelector pins an injection to one thread (extension, Section V).
type ThreadSelector struct {
	BlockLinear int // linear block index within the grid
	WarpID      int // warp within the block
	Lane        int // lane within the warp
}

// Validate checks parameter ranges.
func (p *TransientParams) Validate() error {
	if !p.Group.Valid() {
		return fmt.Errorf("core: invalid arch state id %d", p.Group)
	}
	if !p.BitFlip.Valid() {
		return fmt.Errorf("core: invalid bit-flip model %d", p.BitFlip)
	}
	if p.KernelName == "" {
		return fmt.Errorf("core: empty kernel name")
	}
	if p.KernelCount < 0 {
		return fmt.Errorf("core: negative kernel count")
	}
	if p.DestRegSelect < 0 || p.DestRegSelect >= 1 {
		return fmt.Errorf("core: destination register value %v outside [0,1)", p.DestRegSelect)
	}
	if p.BitPatternValue < 0 || p.BitPatternValue >= 1 {
		return fmt.Errorf("core: bit-pattern value %v outside [0,1)", p.BitPatternValue)
	}
	if p.Thread != nil {
		if p.Thread.BlockLinear < 0 || p.Thread.WarpID < 0 ||
			p.Thread.Lane < 0 || p.Thread.Lane >= 32 {
			return fmt.Errorf("core: invalid thread selector %+v", *p.Thread)
		}
	}
	if p.MultiRegCount < 0 {
		return fmt.Errorf("core: negative multi-register count %d", p.MultiRegCount)
	}
	if p.SiteResolved && p.StaticInstrIdx < 0 {
		return fmt.Errorf("core: negative static instruction index %d", p.StaticInstrIdx)
	}
	if !p.SiteResolved && p.StaticInstrIdx != 0 {
		return fmt.Errorf("core: static instruction index set without site resolution")
	}
	return nil
}

// WriteTo serializes the parameter file: one parameter per line, in Table
// II order.
func (p *TransientParams) WriteTo(w io.Writer) (int64, error) {
	s := fmt.Sprintf("%d\n%d\n%s\n%d\n%d\n%g\n%g\n",
		p.Group, p.BitFlip, p.KernelName, p.KernelCount, p.InstrCount,
		p.DestRegSelect, p.BitPatternValue)
	if p.Thread != nil {
		s += fmt.Sprintf("thread %d %d %d\n",
			p.Thread.BlockLinear, p.Thread.WarpID, p.Thread.Lane)
	}
	if p.MultiRegCount > 1 {
		s += fmt.Sprintf("multiregs %d\n", p.MultiRegCount)
	}
	if p.SiteResolved {
		s += fmt.Sprintf("site %d\n", p.StaticInstrIdx)
	}
	n, err := io.WriteString(w, s)
	return int64(n), err
}

// String renders the parameter file text.
func (p *TransientParams) String() string {
	var sb strings.Builder
	if _, err := p.WriteTo(&sb); err != nil {
		return "<error: " + err.Error() + ">"
	}
	return sb.String()
}

// ParseTransientParams reads a parameter file written by WriteTo.
func ParseTransientParams(r io.Reader) (*TransientParams, error) {
	sc := bufio.NewScanner(r)
	var lines []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: reading parameter file: %w", err)
	}
	if len(lines) < 7 {
		return nil, fmt.Errorf("core: parameter file has %d lines, want at least 7", len(lines))
	}
	var p TransientParams
	g, err := sass.ParseGroup(lines[0])
	if err != nil {
		return nil, err
	}
	p.Group = g
	bf, err := strconv.Atoi(lines[1])
	if err != nil {
		return nil, fmt.Errorf("core: bad bit-flip model: %v", err)
	}
	p.BitFlip = BitFlipModel(bf)
	p.KernelName = lines[2]
	if p.KernelCount, err = strconv.Atoi(lines[3]); err != nil {
		return nil, fmt.Errorf("core: bad kernel count: %v", err)
	}
	if p.InstrCount, err = strconv.ParseUint(lines[4], 10, 64); err != nil {
		return nil, fmt.Errorf("core: bad instruction count: %v", err)
	}
	if p.DestRegSelect, err = strconv.ParseFloat(lines[5], 64); err != nil {
		return nil, fmt.Errorf("core: bad destination register value: %v", err)
	}
	if p.BitPatternValue, err = strconv.ParseFloat(lines[6], 64); err != nil {
		return nil, fmt.Errorf("core: bad bit-pattern value: %v", err)
	}
	for _, extra := range lines[7:] {
		fields := strings.Fields(extra)
		switch {
		case len(fields) == 4 && fields[0] == "thread":
			blk, err1 := strconv.Atoi(fields[1])
			warp, err2 := strconv.Atoi(fields[2])
			lane, err3 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("core: bad thread selector line %q", extra)
			}
			p.Thread = &ThreadSelector{BlockLinear: blk, WarpID: warp, Lane: lane}
		case len(fields) == 2 && fields[0] == "multiregs":
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("core: bad multiregs line %q", extra)
			}
			p.MultiRegCount = n
		case len(fields) == 2 && fields[0] == "site":
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("core: bad site line %q", extra)
			}
			p.SiteResolved = true
			p.StaticInstrIdx = n
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// PermanentParams is the permanent-fault parameter set (Table III).
type PermanentParams struct {
	// SMID selects which streaming multiprocessor to inject.
	SMID int
	// Lane selects which of the 32 hardware lanes to inject.
	Lane int
	// BitMask is the XOR mask applied to destination registers.
	BitMask uint32
	// OpcodeID indexes the architecture family's opcode set (for Volta,
	// 0..170).
	OpcodeID int

	// ExtraOpcodeIDs extends the fault to additional opcodes — the paper's
	// "allowing a permanent fault to affect multiple opcodes" extension,
	// e.g. every opcode sharing a faulty ALU.
	ExtraOpcodeIDs []int
}

// Validate checks ranges against the family's opcode set size.
func (p *PermanentParams) Validate(family sass.Family, numSMs int) error {
	if p.SMID < 0 || p.SMID >= numSMs {
		return fmt.Errorf("core: SM id %d outside 0..%d", p.SMID, numSMs-1)
	}
	if p.Lane < 0 || p.Lane >= 32 {
		return fmt.Errorf("core: lane id %d outside 0..31", p.Lane)
	}
	n := sass.OpcodeCount(family)
	for _, id := range append([]int{p.OpcodeID}, p.ExtraOpcodeIDs...) {
		if id < 0 || id >= n {
			return fmt.Errorf("core: opcode id %d outside 0..%d for %v", id, n-1, family)
		}
	}
	return nil
}

// Opcode resolves the opcode id within a family's opcode set.
func (p *PermanentParams) Opcode(family sass.Family) sass.Op {
	return sass.OpcodeSet(family)[p.OpcodeID]
}

// WriteTo serializes the parameter file, one parameter per line in Table
// III order (SM id, lane id, bit mask, opcode id).
func (p *PermanentParams) WriteTo(w io.Writer) (int64, error) {
	s := fmt.Sprintf("%d\n%d\n0x%x\n%d\n", p.SMID, p.Lane, p.BitMask, p.OpcodeID)
	for _, id := range p.ExtraOpcodeIDs {
		s += fmt.Sprintf("opcode %d\n", id)
	}
	n, err := io.WriteString(w, s)
	return int64(n), err
}

// String renders the parameter file text.
func (p *PermanentParams) String() string {
	var sb strings.Builder
	if _, err := p.WriteTo(&sb); err != nil {
		return "<error: " + err.Error() + ">"
	}
	return sb.String()
}

// ParsePermanentParams reads a permanent-fault parameter file.
func ParsePermanentParams(r io.Reader) (*PermanentParams, error) {
	sc := bufio.NewScanner(r)
	var lines []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: reading parameter file: %w", err)
	}
	if len(lines) < 4 {
		return nil, fmt.Errorf("core: permanent parameter file has %d lines, want at least 4", len(lines))
	}
	var p PermanentParams
	var err error
	if p.SMID, err = strconv.Atoi(lines[0]); err != nil {
		return nil, fmt.Errorf("core: bad SM id: %v", err)
	}
	if p.Lane, err = strconv.Atoi(lines[1]); err != nil {
		return nil, fmt.Errorf("core: bad lane id: %v", err)
	}
	mask, err := strconv.ParseUint(lines[2], 0, 32)
	if err != nil {
		return nil, fmt.Errorf("core: bad bit mask: %v", err)
	}
	p.BitMask = uint32(mask)
	if p.OpcodeID, err = strconv.Atoi(lines[3]); err != nil {
		return nil, fmt.Errorf("core: bad opcode id: %v", err)
	}
	for _, extra := range lines[4:] {
		fields := strings.Fields(extra)
		if len(fields) == 2 && fields[0] == "opcode" {
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("core: bad extra opcode line %q", extra)
			}
			p.ExtraOpcodeIDs = append(p.ExtraOpcodeIDs, id)
		}
	}
	return &p, nil
}
