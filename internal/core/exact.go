package core

import (
	"context"
	"fmt"
	"math"

	"greencloud/internal/cost"
	"greencloud/internal/energy"
	"greencloud/internal/location"
	"greencloud/internal/lp"
	"greencloud/internal/milp"
)

// ExactOptions tunes the MILP solve.
type ExactOptions struct {
	// MaxNodes caps the branch-and-bound nodes (0 = solver default); at the
	// cap the best incumbent found so far is returned with
	// Solution.ExactProven false, and Solution.ExactGap reports how far its
	// bound was still open.
	MaxNodes int
	// Ctx, when non-nil, cancels the search cooperatively.  A context
	// deadline bounds its wall-clock time: the search then stops with
	// milp.ErrDeadline.
	Ctx context.Context
}

// SolveExact builds the optimization problem of Fig. 1 as a MILP (binary
// siting variables plus continuous provisioning and per-epoch operation
// variables) over the given candidate site IDs and solves it with branch and
// bound.  It is only tractable for small instances — a handful of candidate
// sites on a coarse representative grid — and exists to validate the
// heuristic solver, mirroring how the paper compares its heuristic against
// the exact MILP at 0 % and 100 % green energy.
//
// The returned Solution re-prices the MILP's siting and provisioning with
// the fast evaluator so its cost breakdown is directly comparable with
// Solve's output.
//
// Basis reuse across candidate sitings: every branch-and-bound node pins a
// subset of the at[d] siting binaries, so each node's LP relaxation is the
// provisioning problem of one partial candidate siting.  The milp layer
// solves all of them against a single shared lp.Problem and warm-starts
// each child from its parent's optimal basis (a dual-feasible restart after
// the branch bound), so the exact evaluator never re-solves a sibling
// siting from scratch — the dominant cost of the exact path at the 0% and
// 100% green extremes the paper validates against.
func SolveExact(cat *location.Catalog, candidateIDs []int, spec Spec, opts ExactOptions) (*Solution, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(candidateIDs) == 0 {
		return nil, ErrNoSites
	}
	sites := make([]*location.Site, len(candidateIDs))
	for i, id := range candidateIDs {
		s, err := cat.Site(id)
		if err != nil {
			return nil, err
		}
		sites[i] = s
	}
	nSites := len(sites)
	nEpochs := cat.Epochs()
	w := cat.EpochWeight() // real days each epoch stands for
	minDCs, err := spec.MinDatacenters()
	if err != nil {
		return nil, err
	}
	if minDCs > nSites {
		return nil, fmt.Errorf("%w: %d candidates for %d required datacenters", ErrInfeasible, nSites, minDCs)
	}

	p := spec.Cost
	prob := milp.NewProblem(lp.Minimize)

	// Monthly cost coefficients (all CAPEX already financed/amortized).
	bigDC := spec.TotalCapacityKW/float64(minDCs) >= p.LargeDCThresholdKW
	dcPricePerW := p.PriceBuildDCSmallPerW
	if bigDC {
		dcPricePerW = p.PriceBuildDCLargePerW
	}
	monthlyPerKWofDC := func(s *location.Site) float64 {
		build := cost.MonthlyFinanced(s.MaxPUE*1000*dcPricePerW, p.AnnualInterestRate, p.FinancingYears, p.DCAmortYears)
		land := cost.MonthlyInterestOnly(s.LandPriceUSDPerM2*p.AreaDCM2PerKW, p.AnnualInterestRate, p.FinancingYears, p.LandAmortYears)
		servers := p.NumServers(1)
		it := cost.MonthlyFinanced(servers*p.PriceServerUSD+(servers/p.ServersPerSwitch)*p.PriceSwitchUSD,
			p.AnnualInterestRate, p.ITAmortYears, p.ITAmortYears)
		bandwidth := servers * p.PriceBWPerServerMonth
		return build + land + it + bandwidth
	}
	monthlyPerKWSolar := func(s *location.Site) float64 {
		return cost.MonthlyFinanced(1000*p.PriceBuildSolarPerW, p.AnnualInterestRate, p.FinancingYears, p.PlantAmortYears) +
			cost.MonthlyInterestOnly(s.LandPriceUSDPerM2*p.AreaSolarM2PerKW, p.AnnualInterestRate, p.FinancingYears, p.LandAmortYears)
	}
	monthlyPerKWWind := func(s *location.Site) float64 {
		return cost.MonthlyFinanced(1000*p.PriceBuildWindPerW, p.AnnualInterestRate, p.FinancingYears, p.PlantAmortYears) +
			cost.MonthlyInterestOnly(s.LandPriceUSDPerM2*p.AreaWindM2PerKW, p.AnnualInterestRate, p.FinancingYears, p.LandAmortYears)
	}
	monthlyPerKWhBattery := cost.MonthlyFinanced(p.PriceBattPerKWh, p.AnnualInterestRate, p.BattAmortYears, p.BattAmortYears)

	// Per-site variables.
	at := make([]lp.Var, nSites)
	capacity := make([]lp.Var, nSites)
	solarCap := make([]lp.Var, nSites)
	windCap := make([]lp.Var, nSites)
	battCap := make([]lp.Var, nSites)
	// Per-site, per-epoch variables.
	comp := make([][]lp.Var, nSites)
	migrate := make([][]lp.Var, nSites)
	brown := make([][]lp.Var, nSites)
	battChg := make([][]lp.Var, nSites)
	battDis := make([][]lp.Var, nSites)
	battLevel := make([][]lp.Var, nSites)
	netChg := make([][]lp.Var, nSites)
	netDis := make([][]lp.Var, nSites)
	netLevel := make([][]lp.Var, nSites)

	addVar := func(name string, lb, ub, c float64) (lp.Var, error) {
		return prob.AddVariable(name, lb, ub, c)
	}

	// A loose big-M for capacity: the whole network's capacity plus slack.
	bigM := spec.TotalCapacityKW * 4

	solarAllowed := spec.Sources == SolarOnly || spec.Sources == SolarAndWind
	windAllowed := spec.Sources == WindOnly || spec.Sources == SolarAndWind
	useBatteries := spec.Storage == energy.Batteries
	useNetMeter := spec.Storage == energy.NetMetering

	for d, s := range sites {
		var err error
		capIndMonthly := cost.MonthlyFinanced(p.CapIndependentUSD(s), p.AnnualInterestRate, p.FinancingYears, p.DCAmortYears)
		if at[d], err = prob.AddBinaryVariable(fmt.Sprintf("at[%d]", d), capIndMonthly); err != nil {
			return nil, err
		}
		if capacity[d], err = addVar(fmt.Sprintf("cap[%d]", d), 0, lp.Infinity, monthlyPerKWofDC(s)); err != nil {
			return nil, err
		}
		if solarAllowed {
			solarCap[d], err = addVar(fmt.Sprintf("solar[%d]", d), 0, lp.Infinity, monthlyPerKWSolar(s))
		} else {
			solarCap[d], err = addVar(fmt.Sprintf("solar[%d]", d), 0, 0, 0)
		}
		if err != nil {
			return nil, err
		}
		if windAllowed {
			windCap[d], err = addVar(fmt.Sprintf("wind[%d]", d), 0, lp.Infinity, monthlyPerKWWind(s))
		} else {
			windCap[d], err = addVar(fmt.Sprintf("wind[%d]", d), 0, 0, 0)
		}
		if err != nil {
			return nil, err
		}
		if useBatteries {
			battCap[d], err = addVar(fmt.Sprintf("batt[%d]", d), 0, lp.Infinity, monthlyPerKWhBattery)
			if err != nil {
				return nil, err
			}
		}

		comp[d] = make([]lp.Var, nEpochs)
		migrate[d] = make([]lp.Var, nEpochs)
		brown[d] = make([]lp.Var, nEpochs)
		if useBatteries {
			battChg[d] = make([]lp.Var, nEpochs)
			battDis[d] = make([]lp.Var, nEpochs)
			battLevel[d] = make([]lp.Var, nEpochs)
		}
		if useNetMeter {
			netChg[d] = make([]lp.Var, nEpochs)
			netDis[d] = make([]lp.Var, nEpochs)
			netLevel[d] = make([]lp.Var, nEpochs)
		}

		for t := 0; t < nEpochs; t++ {
			// Monthly brown energy cost coefficient: price × hours / 12.
			brownCost := s.GridPriceUSDPerKWh * w / cost.MonthsPerYear
			netDisCost := s.GridPriceUSDPerKWh * w / cost.MonthsPerYear
			netChgCredit := -p.CreditNetMeter * s.GridPriceUSDPerKWh * w / cost.MonthsPerYear

			if comp[d][t], err = addVar("comp", 0, lp.Infinity, 0); err != nil {
				return nil, err
			}
			if migrate[d][t], err = addVar("mig", 0, lp.Infinity, 0); err != nil {
				return nil, err
			}
			maxBrown := s.NearestPlantKW * maxBrownShareOfPlant
			if brown[d][t], err = addVar("brown", 0, maxBrown, brownCost); err != nil {
				return nil, err
			}
			if useBatteries {
				if battChg[d][t], err = addVar("battChg", 0, lp.Infinity, 0); err != nil {
					return nil, err
				}
				if battDis[d][t], err = addVar("battDis", 0, lp.Infinity, 0); err != nil {
					return nil, err
				}
				if battLevel[d][t], err = addVar("battLevel", 0, lp.Infinity, 0); err != nil {
					return nil, err
				}
			}
			if useNetMeter {
				if netChg[d][t], err = addVar("netChg", 0, lp.Infinity, netChgCredit); err != nil {
					return nil, err
				}
				if netDis[d][t], err = addVar("netDis", 0, lp.Infinity, netDisCost); err != nil {
					return nil, err
				}
				if netLevel[d][t], err = addVar("netLevel", 0, lp.Infinity, 0); err != nil {
					return nil, err
				}
			}
		}
	}

	// Constraints.
	for d, s := range sites {
		// 4. capacity ≤ M·at(d): nothing is built at unselected sites.
		if err := prob.AddConstraint("cap-at", lp.LE, 0,
			lp.Term{Var: capacity[d], Coeff: 1}, lp.Term{Var: at[d], Coeff: -bigM}); err != nil {
			return nil, err
		}
		plantBigM := bigM * 60
		if err := prob.AddConstraint("solar-at", lp.LE, 0,
			lp.Term{Var: solarCap[d], Coeff: 1}, lp.Term{Var: at[d], Coeff: -plantBigM}); err != nil {
			return nil, err
		}
		if err := prob.AddConstraint("wind-at", lp.LE, 0,
			lp.Term{Var: windCap[d], Coeff: 1}, lp.Term{Var: at[d], Coeff: -plantBigM}); err != nil {
			return nil, err
		}
		// Survivability: a selected site hosts at least a 1/minDCs share.
		if err := prob.AddConstraint("surv", lp.GE, 0,
			lp.Term{Var: capacity[d], Coeff: 1},
			lp.Term{Var: at[d], Coeff: -spec.TotalCapacityKW / float64(minDCs)}); err != nil {
			return nil, err
		}

		for t := 0; t < nEpochs; t++ {
			// 1. capacity ≥ comp + migrate.
			if err := prob.AddConstraint("capacity", lp.GE, 0,
				lp.Term{Var: capacity[d], Coeff: 1},
				lp.Term{Var: comp[d][t], Coeff: -1},
				lp.Term{Var: migrate[d][t], Coeff: -1}); err != nil {
				return nil, err
			}
			// Migration definition: migrate ≥ f·(comp(t−1) − comp(t)).
			if t > 0 && spec.MigrationFraction > 0 {
				if err := prob.AddConstraint("migrate", lp.GE, 0,
					lp.Term{Var: migrate[d][t], Coeff: 1},
					lp.Term{Var: comp[d][t-1], Coeff: -spec.MigrationFraction},
					lp.Term{Var: comp[d][t], Coeff: spec.MigrationFraction}); err != nil {
					return nil, err
				}
			}
			// 5. powDemand ≤ powAvail:
			// (comp+mig)·PUE ≤ α·solar + β·wind + battDis + netDis + brown − battChg − netChg.
			pueT := s.PUE[t]
			powerTerms := []lp.Term{
				{Var: comp[d][t], Coeff: pueT},
				{Var: migrate[d][t], Coeff: pueT},
				{Var: solarCap[d], Coeff: -s.Alpha[t]},
				{Var: windCap[d], Coeff: -s.Beta[t]},
				{Var: brown[d][t], Coeff: -1},
			}
			if useBatteries {
				powerTerms = append(powerTerms,
					lp.Term{Var: battDis[d][t], Coeff: -1},
					lp.Term{Var: battChg[d][t], Coeff: 1})
			}
			if useNetMeter {
				powerTerms = append(powerTerms,
					lp.Term{Var: netDis[d][t], Coeff: -1},
					lp.Term{Var: netChg[d][t], Coeff: 1})
			}
			if err := prob.AddConstraint("power", lp.LE, 0, powerTerms...); err != nil {
				return nil, err
			}
			// 6–7. Battery level chaining and capacity.
			if useBatteries {
				terms := []lp.Term{
					{Var: battLevel[d][t], Coeff: 1},
					{Var: battChg[d][t], Coeff: -p.BatteryEfficiency},
					{Var: battDis[d][t], Coeff: 1},
				}
				if t > 0 {
					terms = append(terms, lp.Term{Var: battLevel[d][t-1], Coeff: -1})
				}
				if err := prob.AddConstraint("battLevel", lp.EQ, 0, terms...); err != nil {
					return nil, err
				}
				if err := prob.AddConstraint("battCap", lp.LE, 0,
					lp.Term{Var: battLevel[d][t], Coeff: 1},
					lp.Term{Var: battCap[d], Coeff: -1}); err != nil {
					return nil, err
				}
				// Charging cannot exceed what the green plant produces.
				if err := prob.AddConstraint("chgSource", lp.LE, 0,
					lp.Term{Var: battChg[d][t], Coeff: 1},
					lp.Term{Var: solarCap[d], Coeff: -s.Alpha[t]},
					lp.Term{Var: windCap[d], Coeff: -s.Beta[t]}); err != nil {
					return nil, err
				}
			}
			// 8–9. Net metering account chaining (never negative via lb 0).
			if useNetMeter {
				terms := []lp.Term{
					{Var: netLevel[d][t], Coeff: 1},
					{Var: netChg[d][t], Coeff: -1},
					{Var: netDis[d][t], Coeff: 1},
				}
				if t > 0 {
					terms = append(terms, lp.Term{Var: netLevel[d][t-1], Coeff: -1})
				}
				if err := prob.AddConstraint("netLevel", lp.EQ, 0, terms...); err != nil {
					return nil, err
				}
				if err := prob.AddConstraint("netChgSource", lp.LE, 0,
					lp.Term{Var: netChg[d][t], Coeff: 1},
					lp.Term{Var: solarCap[d], Coeff: -s.Alpha[t]},
					lp.Term{Var: windCap[d], Coeff: -s.Beta[t]}); err != nil {
					return nil, err
				}
			}
		}
	}

	// 2. Total compute capacity per epoch.
	for t := 0; t < nEpochs; t++ {
		terms := make([]lp.Term, nSites)
		for d := range sites {
			terms[d] = lp.Term{Var: comp[d][t], Coeff: 1}
		}
		if err := prob.AddConstraint("totalCap", lp.GE, spec.TotalCapacityKW, terms...); err != nil {
			return nil, err
		}
	}

	// 3. Minimum green fraction over the year:
	// Σ w·(α·solar + β·wind + battDis + netDis) ≥ minGreen · Σ w·(comp+mig)·PUE.
	if spec.MinGreenFraction > 0 {
		var terms []lp.Term
		for d, s := range sites {
			for t := 0; t < nEpochs; t++ {
				terms = append(terms,
					lp.Term{Var: solarCap[d], Coeff: w * s.Alpha[t]},
					lp.Term{Var: windCap[d], Coeff: w * s.Beta[t]},
					lp.Term{Var: comp[d][t], Coeff: -spec.MinGreenFraction * w * s.PUE[t]},
					lp.Term{Var: migrate[d][t], Coeff: -spec.MinGreenFraction * w * s.PUE[t]},
				)
				if useBatteries {
					terms = append(terms, lp.Term{Var: battDis[d][t], Coeff: w})
				}
				if useNetMeter {
					terms = append(terms, lp.Term{Var: netDis[d][t], Coeff: w})
				}
			}
		}
		if err := prob.AddConstraint("minGreen", lp.GE, 0, terms...); err != nil {
			return nil, err
		}
	}

	// 11. Availability: at least minDCs datacenters.
	atTerms := make([]lp.Term, nSites)
	for d := range sites {
		atTerms[d] = lp.Term{Var: at[d], Coeff: 1}
	}
	if err := prob.AddConstraint("availability", lp.GE, float64(minDCs), atTerms...); err != nil {
		return nil, err
	}

	milpSol, err := prob.SolveWithOptions(milp.Options{
		MaxNodes: opts.MaxNodes,
		Ctx:      opts.Ctx,
	})
	if err != nil {
		// A budget stop with an incumbent in hand comes back as a nil error
		// with Proven false; an error here means there is nothing usable.
		return nil, fmt.Errorf("core: exact solve: %w", err)
	}

	// Re-price the selected siting with the evaluator so the output format
	// matches the heuristic solver's.
	var candidates []Candidate
	for d := range sites {
		if milpSol.Value(at[d]) > 0.5 {
			capKW := milpSol.Value(capacity[d])
			if capKW < spec.TotalCapacityKW/float64(minDCs) {
				capKW = spec.TotalCapacityKW / float64(minDCs)
			}
			candidates = append(candidates, Candidate{SiteID: candidateIDs[d], CapacityKW: capKW})
		}
	}
	if len(candidates) == 0 {
		return nil, ErrInfeasible
	}
	sol, err := Evaluate(cat, candidates, spec)
	if err != nil {
		return nil, err
	}
	// Keep the MILP objective available for comparisons even though the
	// evaluator re-prices operation; the two should be close.
	if math.IsInf(sol.TotalMonthlyUSD, 0) || sol.TotalMonthlyUSD == 0 {
		sol.TotalMonthlyUSD = milpSol.Objective
	}
	sol.ExactNodes = milpSol.Nodes
	sol.ExactProven = milpSol.Proven
	sol.ExactGap = milpSol.Gap
	sol.ExactLPStats = milpSol.LPStats
	return sol, nil
}
