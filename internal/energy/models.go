package energy

import "dmamem/internal/sim"

// This file ships the calibrated technology backends. Each builder
// cites the tables its constants come from; registration happens in
// init so `Techs()` always lists them.
//
// Calibration sources:
//   - rdram: Table 1 of the source paper (identical to Lebeck et al.,
//     from the 512 Mb 1600 MHz RDRAM datasheet).
//   - ddr400: typical 512 Mb DDR400 datasheet IDD figures at 2.6 V
//     (the DDR extension already analyzed in EXPERIMENTS.md).
//   - ddr3-1600 / ddr4-2400 / lpddr4: per-rank figures derived from
//     Micron IDD tables the gem5 power-down integration study
//     (arXiv:1803.07613) calibrates against, with JEDEC exit
//     latencies (tXP, tXPDLL, tXS, tXSR, tDLLK).
func init() {
	register("rdram", RDRAM)
	registerAlias("rdram-1600", "rdram")
	register("ddr400", newDDR400Model)
	// The public API's historical name for the DDR extension.
	registerAlias("ddr", "ddr400")
	register("ddr3-1600", newDDR3Model)
	register("ddr4-2400", newDDR4Model)
	register("lpddr4", newLPDDR4Model)
	registerAlias("lpddr4-3200", "lpddr4")
}

// RDRAM is the paper's Table 1 device, a 512 Mb 1600 MHz RDRAM part:
// 3.2 GB/s, 625 ps cycle. Demotions take whole memory cycles; wakes
// take Table 1's "+ns" resynchronization delays. Micro-naps sit in
// nap, and the dynamic thresholds are 10 ns (16 memory cycles, on the
// order of the 20-30 cycles the paper quotes as the best
// active->low-power setting), 100 ns and 2 us.
func RDRAM() *Model {
	const cyc = 625 * sim.Picosecond // 1600 MHz
	return chainModel("rdram-1600", cyc, 3.2e9,
		[]StateSpec{
			{Name: "active", Power: 0.300},
			{Name: "standby", Power: 0.180},
			{Name: "nap", Power: 0.030},
			{Name: "powerdown", Power: 0.003},
		},
		[]Transition{
			Standby:   {Power: 0.240, Time: 1 * cyc},
			Nap:       {Power: 0.160, Time: 8 * cyc},
			Powerdown: {Power: 0.015, Time: 8 * cyc},
		},
		[]Transition{
			Standby:   {Power: 0.240, Time: 6 * sim.Nanosecond},
			Nap:       {Power: 0.160, Time: 60 * sim.Nanosecond},
			Powerdown: {Power: 0.015, Time: 6000 * sim.Nanosecond},
		},
		Nap,
		[]sim.Duration{16 * cyc, 100 * sim.Nanosecond, 2 * sim.Microsecond},
	)
}

// newDDR400Model is a DDR SDRAM part of the paper's era (2.1 GB/s
// class, 5 ns clock): higher operating power, shallower low-power
// states, and a much cheaper exit from its deepest state than RDRAM's
// powerdown. Numbers follow typical 512 Mb DDR400 datasheet figures
// (IDD currents at 2.6 V): active ~460 mW, active standby ~180 mW,
// precharge powerdown ~45 mW, self refresh ~13 mW with a ~200-cycle
// exit. It keeps RDRAM's state names and dynamic thresholds, so
// `MemoryTech: "ddr"` configs and `StaticMode` selections read the
// same on both.
func newDDR400Model() *Model {
	const cyc = 5 * sim.Nanosecond
	return chainModel("ddr-400", cyc, 2.1e9,
		[]StateSpec{
			{Name: "active", Power: 0.460},
			{Name: "standby", Power: 0.180},
			{Name: "nap", Power: 0.045},
			{Name: "powerdown", Power: 0.013},
		},
		[]Transition{
			Standby:   {Power: 0.300, Time: 1 * cyc},
			Nap:       {Power: 0.110, Time: 2 * cyc},
			Powerdown: {Power: 0.025, Time: 2 * cyc},
		},
		[]Transition{
			Standby:   {Power: 0.300, Time: 2 * cyc},
			Nap:       {Power: 0.110, Time: 6 * cyc},
			Powerdown: {Power: 0.025, Time: 200 * cyc},
		},
		Nap,
		[]sim.Duration{10 * sim.Nanosecond, 100 * sim.Nanosecond, 2 * sim.Microsecond},
	)
}

// newDDR3Model is a DDR3-1600 rank (eight x8 2 Gb devices, VDD 1.5 V).
// Resident powers follow the Micron 2 Gb DDR3 datasheet IDD table
// scaled to the rank: IDD3N-class active standby ~720 mW, fast-exit
// active power-down (IDD3P) ~360 mW, precharge power-down (IDD2P)
// ~150 mW, self-refresh (IDD6) ~48 mW. Exit latencies are JEDEC
// DDR3-1600: tXP = 6 ns, tXPDLL = 24 ns, tXS ≈ 270 ns (tRFC + 10 ns
// for a 2 Gb part). Demotion thresholds sit a small multiple above
// each state's break-even time (~8.5 ns / ~16 ns / ~125 ns).
func newDDR3Model() *Model {
	const cyc = 1250 * sim.Picosecond // 800 MHz clock, 1600 MT/s
	return chainModel("ddr3-1600", cyc, 12.8e9,
		[]StateSpec{
			{Name: "active", Power: 0.720},
			{Name: "active-powerdown", Power: 0.360},
			{Name: "precharge-powerdown", Power: 0.150},
			{Name: "self-refresh", Power: 0.048},
		},
		[]Transition{
			1: {Power: 0.360, Time: 2 * cyc},
			2: {Power: 0.150, Time: 2 * cyc},
			3: {Power: 0.048, Time: 4 * cyc},
		},
		[]Transition{
			1: {Power: 0.540, Time: 6 * sim.Nanosecond},   // tXP
			2: {Power: 0.540, Time: 24 * sim.Nanosecond},  // tXPDLL
			3: {Power: 0.360, Time: 270 * sim.Nanosecond}, // tXS
		},
		2, // micro-nap in precharge power-down
		[]sim.Duration{20 * sim.Nanosecond, 200 * sim.Nanosecond, 1 * sim.Microsecond},
	)
}

// newDDR4Model is a DDR4-2400 rank (x8 8 Gb devices, VDD 1.2 V) with
// five states.
// Powers follow the Micron 8 Gb DDR4 IDD table scaled to the rank:
// active standby (IDD3N) ~576 mW, active power-down (IDD3P) ~264 mW,
// precharge power-down (IDD2P) ~108 mW, self-refresh (IDD6N) ~48 mW,
// and maximum power-saving mode ~18 mW. Exits are JEDEC DDR4-2400:
// tXP = 6 ns for both power-down flavors (precharge power-down gets a
// few extra cycles to reopen rows), tXS ≈ 360 ns (tRFC for 8 Gb), and
// MPSM exit needs the DLL relock, tDLLK = 1024 cycles ≈ 854 ns.
func newDDR4Model() *Model {
	const cyc = 833 * sim.Picosecond // 1200 MHz clock, 2400 MT/s
	return chainModel("ddr4-2400", cyc, 19.2e9,
		[]StateSpec{
			{Name: "active", Power: 0.576},
			{Name: "active-powerdown", Power: 0.264},
			{Name: "precharge-powerdown", Power: 0.108},
			{Name: "self-refresh", Power: 0.048},
			{Name: "max-power-saving", Power: 0.018},
		},
		[]Transition{
			1: {Power: 0.264, Time: 2 * cyc},
			2: {Power: 0.108, Time: 2 * cyc},
			3: {Power: 0.048, Time: 4 * cyc},
			4: {Power: 0.018, Time: 8 * cyc},
		},
		[]Transition{
			1: {Power: 0.432, Time: 6 * sim.Nanosecond},   // tXP
			2: {Power: 0.432, Time: 10 * sim.Nanosecond},  // tXP + row reopen
			3: {Power: 0.288, Time: 360 * sim.Nanosecond}, // tXS
			4: {Power: 0.192, Time: 854 * sim.Nanosecond}, // tDLLK
		},
		2, // micro-nap in precharge power-down
		[]sim.Duration{
			15 * sim.Nanosecond, 100 * sim.Nanosecond,
			1 * sim.Microsecond, 10 * sim.Microsecond,
		},
	)
}

// newLPDDR4Model is an LPDDR4-3200 rank (two x16 channels of a 4 Gb
// die, VDD2 1.1 V) with only three states — mobile parts collapse the
// power-down flavors into one clock-stopped state. Powers follow the
// Micron 4 Gb LPDDR4 IDD table: active standby ~360 mW, clock-stop
// power-down (IDD2P) ~90 mW, self-refresh (IDD6) ~15 mW. Exits are
// JEDEC LPDDR4: tXP = 7.5 ns, tXSR ≈ 140 ns (tRFCab + 7.5 ns).
func newLPDDR4Model() *Model {
	const cyc = 625 * sim.Picosecond // 1600 MHz clock, 3200 MT/s
	return chainModel("lpddr4-3200", cyc, 12.8e9,
		[]StateSpec{
			{Name: "active", Power: 0.360},
			{Name: "powerdown", Power: 0.090},
			{Name: "self-refresh", Power: 0.015},
		},
		[]Transition{
			1: {Power: 0.090, Time: 2 * cyc},
			2: {Power: 0.015, Time: 4 * cyc},
		},
		[]Transition{
			1: {Power: 0.180, Time: 7500 * sim.Picosecond}, // tXP
			2: {Power: 0.120, Time: 140 * sim.Nanosecond},  // tXSR
		},
		1, // micro-nap in clock-stop power-down
		[]sim.Duration{15 * sim.Nanosecond, 500 * sim.Nanosecond},
	)
}
