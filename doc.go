// Package greencloud reproduces "Building Green Cloud Services at Low Cost"
// (Berral, Goiri, Nguyen, Gavaldà, Torres, Bianchini — ICDCS 2014) as a Go
// library.
//
// The repository has two public entry points:
//
//   - package placement sites and provisions a network of datacenters with
//     on-site solar/wind plants and energy storage so that a desired
//     fraction of the service's energy is green, at minimum monthly cost
//     (the paper's framework, optimization problem and heuristic solver);
//   - package renewables runs GreenNebula, the follow-the-renewables VM
//     placement and migration system (hourly scheduler, live migration over
//     an emulated WAN, GDFS distributed file system).
//
// Everything the paper's evaluation depends on — synthetic typical
// meteorological years, PV and wind-turbine production models, the PUE
// model, the cost model with financing and amortization, an LP/MILP solver,
// simulated annealing, the within-datacenter VM manager and the emulated
// wide-area network — is implemented from scratch under internal/.
//
// # The LP layer: bounded-variable revised simplex with basis reuse
//
// Every linear program in the system — the scheduler's 48-hour partition
// LP, the branch-and-bound relaxations of internal/milp, the exact
// evaluator's siting MILP — runs on internal/lp's revised simplex.  The
// standard form is bounded: minimize c·y s.t. A·y = b, 0 ≤ y ≤ u, with
// exactly one row per model constraint — finite variable bounds are
// column data (shifted, or mirrored when only the upper bound is finite),
// never rows, so the basis dimension of a bound-heavy model like a milp
// relaxation is its constraint count instead of constraints plus bounds.
// Nonbasic columns carry an at-lower/at-upper status, pricing is signed by
// that status, and the Harris-style two-pass ratio test caps the step at
// the entering column's opposite bound — when that cap binds first, the
// iteration is a bound flip: a status bit and a basic-solution update with
// no basis change, no eta, no LU aging.  The form is stored column-wise
// (CSC) and kept on the Problem across solves: data edits are written into
// it in place, and only an edit that changes its layout (a variable or
// constraint added, a bound changing form, a shifted right-hand side
// changing sign, a coefficient to or from zero) lays it out afresh; the
// solver's vectors, LU factors and eta file are kept with it, so a warm
// plannerd tick allocates only the LP results it returns.  The basis
// matrix is LU-factorized by a
// Gilbert–Peierls sparse factorization with partial pivoting, updated by a
// product-form eta file and refactorized every 64 pivots; FTRAN/BTRAN
// triangular solves replace the dense tableau's whole-row elimination.
// Pricing maintains the reduced-cost row incrementally (one sparse BTRAN
// of the leaving unit vector plus one CSC pass per pivot), verifies every
// nominee exactly from its FTRAN column, and only declares optimality
// after an exact rebuild.  Production prices with devex and falls back to
// Bland's least-index rule when a degenerate stall latches.
//
// Warm starts thread the basis up the stack: a Solution captures its
// optimal basis in model-level terms (lp.Basis — per row, which
// variable/slack/artificial was basic, plus the nonbasic-at-upper set,
// keyed by identities that survive re-standardization), and
// Problem.SolveFrom restarts from it after SetBounds/SetRHS/SetCoeff/
// SetCost mutations — typically a short bounded dual-simplex run (a basic
// value may violate either of its bounds), since bound edits move the
// at-bound columns with them and preserve dual feasibility.  internal/milp
// keeps one shared relaxation Problem whose branch bounds are edited in
// place, so a branch-and-bound node adds zero rows and re-solves from its
// parent's basis; internal/sched keeps a per-Scheduler Problem plus basis
// across scheduling rounds, with each site's load capacity expressed as an
// implicit variable bound (full-capacity hours park the load column
// nonbasic-at-upper); the exact evaluator inherits both.  A basis that no
// longer translates silently falls back to a cold two-phase solve, so
// reuse can cost time but never correctness, and the bounded core is
// pinned against the frozen pre-refactor dense-tableau solver (which still
// expands every finite bound into an explicit row) by a 600-problem
// randomized differential test, half of it bound-heavy (identical Status
// everywhere, objectives within 1e-9).
//
// # The series layer: epoch-major blocks and fused kernels
//
// All dense per-epoch arithmetic lives in internal/series: an epoch-major
// Block type (rows × epochs float64, contiguous, row r at
// data[r·E, (r+1)·E)) plus a small set of fused element-wise kernels
// (WeightedSum, AddMul, AXPY, Scale, SumScaled, Sum, SumPositive,
// ScaledDrop, Zero and a per-row rolling Digest; Sum and SumScaled are
// 4-way unrolled with a single accumulator, so their addition chains — and
// therefore their bits — match the plain loops).  A location catalog's
// per-epoch α/β/PUE profiles are rows of three Blocks written once when the
// catalog is generated and read-only after; core.Evaluator's
// scratch matrices (compute, migration, demand, green availability) are
// single-owner scratch Blocks; internal/sched's per-slot load math runs
// through the same kernels.  One loop dialect means every hot path
// improves at once when a kernel does.  internal/energy's balance is the
// exception: it is a chronological recurrence (a storage level carried
// from epoch to epoch), so it is not an element-wise kernel, and it reads
// the α/β profile rows and the demand row directly, deriving each epoch's
// green production (SolarKW·α + WindKW·β, WeightedSum's expression) inline
// instead of through a scratch series.
//
// Aliasing/mutability contract: Block.Row clips the returned slice's
// capacity at the row boundary, so writes through one row can never reach
// a neighbour; shared Blocks (the catalog's profile Blocks) are read-only
// after construction, scratch Blocks are owned by one goroutine and fully
// overwritten before they are read.  The kernels are written in the bounds-check-elimination
// style (trip count from dst, every operand pinned with s = s[:n] before
// the loop, no interface indirection) and each is pinned bit-identical to
// a naive scalar reference by the differential suite in
// internal/series/series_test.go; the package comment of internal/series
// documents how to add a kernel without breaking either property.
//
// # The evaluator hot path
//
// The heuristic solver evaluates Chains × MaxIterations candidate sitings
// per solve, and every sweep experiment solves once per green-fraction
// point per storage mode per source mix, so the siting evaluator is the
// system's hot path.  It is built around internal/core's Evaluator: a
// reusable object bound to one (catalog, spec) pair that owns every scratch
// buffer the pipeline needs, plus per-catalog caches of the brown-cost rank
// key, the unit green production costs, the solar/wind technology split and
// the weighted PUE sum of every site.
//
// Every evaluation runs the same three stages, in order:
//
//   - The shared schedule merge assigns the network load per epoch (load
//     follows the renewables first, then the cheapest brown power), driven
//     by per-site reference plants that depend only on each site's own
//     static profile and capacity.  It is cheap and always re-runs.
//   - The per-site stage — migration overhead, facility demand, plant
//     sizing, battery sizing, storage balance and the monthly cost model —
//     is a pure function of (site, capacity, schedule row, spec) and
//     dominates the cost.  It runs for every site on every call.  Plant
//     sizing inverts the greedy balance instead of searching it
//     (energy.ScaleBracket).  Without storage the green energy used is
//     concave and piecewise linear in the plant scale, and Newton's
//     method from zero reaches the smallest sufficient scale in a few
//     passes.  With net metering the bank is a walk reflected at zero, so
//     the smallest scale is one pass over prefix sums of demand and
//     production.  With batteries the scale lies between those two, and a
//     bisection narrows that bracket to 1e-4.  One pass of energy.Green,
//     a sizing kernel with one loop per storage mode that computes only
//     the green energy, confirms every result, stepping it up if rounding
//     left it short.  The full balance (energy.Totals: brown energy, peak
//     brown draw, net-metering flows) runs once, on the final plant.  Both
//     kernels derive green production inline from the site's profiles and
//     the plant, and both repeat the generic balance's operations in its
//     order, so they are bit-identical to it (pinned against a test-only
//     copy by internal/energy's differential test); the exact sizing is
//     pinned against the doubling-and-bisection search it replaced by
//     internal/core's sizing_ref_test.go.
//   - A network-level top-up stage handles sitings whose green target is
//     unreachable from individual sites alone by bisecting a common plant
//     scale factor; it runs only in that case, on top of the per-site
//     sizings, and reads the demand rows the per-site stages just wrote.
//
// Chain memo: at low temperature an annealing chain keeps proposing the
// neighbours it has already priced, so each chain in core.Solve owns a memo
// from siting to energy (its anneal.Config.NewContext value), keyed on the
// ordered (SiteID, CapacityKW bits) list and compared in full.  Order stays
// in the key because candidate order feeds the merge's stable sorts and the
// evaluator's float sums.  Energy is a pure function of that list, so a hit
// returns the bits a fresh evaluation would
// (TestChainMemoMatchesFreshEvaluation pins it).  The memo lives for one
// chain of one Solve and holds at most MaxIterations sitings; it is not
// in the Evaluator, whose lifetime in a what-if session is the daemon's.
// It is the only result memo on the siting path: the Evaluator remembers
// nothing between calls.
//
// Reuse contract: scratch grows to the largest candidate set seen, every
// call overwrites the scratch it reads, and a steady-state EvaluateCost
// call performs zero heap allocations
// (BenchmarkEvaluateSteadyState and the core tests enforce exactly
// 0 allocs/op); the full Evaluate method allocates only the returned
// Solution.  A warm Evaluator returns the bits a fresh one would
// (TestDeltaEvaluationMatchesFull drives one along randomized move
// sequences against a fresh NewEvaluator at every step).  An Evaluator is
// not safe for concurrent use — each annealing chain owns one
// (anneal.Config.NewContext).  Chains are fully independent
// with deterministic per-chain RNG seeds, chain-local memos and a
// deterministic best-of merge, so a fixed seed yields a bit-identical
// Solution whether the chains run sequentially or in parallel.
//
// Location filtering shards the catalog across a GOMAXPROCS worker pool
// (per-worker evaluators, slot-indexed scores, deterministic merge), and
// sweep experiments warm-start each green-fraction point's search with the
// previous point's siting.  Catalog generation (location.Generate) uses the
// same pool idiom: one serial pass makes every draw from the catalog's RNG,
// then the workers derive each site's weather year, hourly traces and
// per-epoch rows into that site's own slot, each from its own scratch year,
// so the catalog is bit-identical at any GOMAXPROCS.  Each weather year is
// dropped once its rows are reduced.  The weather generator reads
// its trigonometry from tables built once per process (24 hour-of-day and
// 365 day-of-year entries, each holding exactly the value the hourly loop
// would compute in place).
//
// # The emulation hot loop: metadata-plane GDFS and the reusable Runner
//
// The follow-the-renewables emulation (internal/emul) is GreenNebula's hot
// path: every emulated hour forecasts green power, partitions the load,
// migrates VMs over the emulated WAN and dirties each VM's disk blocks into
// GDFS.  Two designs keep it at production scale:
//
//   - GDFS keeps one store, the metadata plane (gdfs.MetaWorker): a
//     replica is three scalars {version, length, digest}.  Writes bump
//     versions, replication copies the record, and the byte counters
//     (BytesStored, pending-migration bytes, staleness, re-replication
//     plans) are arithmetic, so a large fleet holds no block bytes at all.
//     The contract is that every externally visible counter equals that of
//     a store holding real payload bytes — same digest if and only if same
//     content, same replica sets, same re-replication task lists — pinned
//     by a randomized differential test that drives MetaWorker and a
//     test-only payload reference through identical op schedules
//     (internal/gdfs/meta_test.go, payload_ref_test.go).  The metadata is
//     dense: the master keeps one {size, valid, held} record per block in
//     a slice indexed by block ID, where valid and held are bitmasks over
//     a worker index assigned at registration (at most 64 workers), and a
//     MetaWorker keeps its replicas in a slice indexed by block ID.
//     Re-replication runs under the master's lock: one ID-order pass
//     plans every copy, a counting sort groups the copies by (source,
//     destination) pair, and each pair's blocks move in one
//     BlockStore.CopyBlocks call that takes each store's lock once;
//     TestReplicateOnceMatchesSequential pins the grouped round against a
//     one-copy-at-a-time reference.  The lock order is master, then
//     store, and a dirty write (Client.DirtyBlocks, one call per range of
//     blocks) takes each of the two once, one after the other.  A steady-state
//     hour — a dirty write to every block plus a re-replication round —
//     allocates nothing (TestSteadyStateRoundAllocatesNothing).
//   - emul.Runner owns every per-run and per-hour buffer: green/PUE traces
//     and forecast windows live in series.Blocks, predictors fill
//     caller-provided slices (predict.Predictor.PredictInto), fleets are
//     maintained pre-sorted across hours so the scheduler skips re-sorting,
//     and the scheduler's partition LP + basis persist across hours
//     (internal/sched warm starts).  Each hour's migrations execute in
//     schedule order on the calling goroutine, adding straight into the
//     per-datacenter accumulators; a schedule in which a datacenter both
//     sends and receives is rejected (the scheduler never produces one).
//     The output does not depend on GOMAXPROCS (pinned at 1 and n).  A
//     Runner's second Run is bit-identical to its first; the
//     scratch-ownership rules are in internal/emul's package comment.
//
// BenchmarkEmulDay runs one emulated day on a reused Runner (its bytes/op
// is a contract, gated by benchjson alongside ns/op);  BenchmarkEmulScale
// holds thousands of VMs per emulated hour.
//
// # Serving: the continuous-planning daemon
//
// internal/plan and cmd/plannerd turn the batch emulation into a service:
// plannerd keeps a live follow-the-renewables plan for one emulated
// network, ingests streamed hourly updates and serves HTTP/JSON on
// localhost — GET /plan (the current plan and cumulative statistics),
// POST /tick (feed the next hour, optionally with per-site green-energy
// scale adjustments standing in for revised weather), POST /whatif (price
// a hypothetical siting interactively).  Each tick is an incremental
// re-plan, not a fresh solve: the scheduler's partition LP keeps its
// structure cached across ticks, the streamed update rewrites only
// RHS/bounds/cost data, and the solve warm-starts from the carried
// lp.Basis — a healthy tick stream runs at zero cold fallbacks for the
// daemon's entire lifetime (Stats.ColdFallbacks counts abandoned warm
// starts, and the first solve of a fresh daemon carries no basis, so the
// CI smoke asserts the counter is exactly 0 across all ticks).  At the
// 3-datacenter/9-VM validation scale a steady-state tick is sub-millisecond
// (BenchmarkPlannerTick gates it, with allocs, in BENCH_SMOKE).
//
// Concurrency model: one mutex serializes the tick path (runner stepping +
// journal appends); the serving state is an immutable-once-published
// PlanView swapped behind an RWMutex, so GET /plan never waits on an
// in-flight solve.  What-if queries run on per-session core.Evaluators —
// distinct sessions price candidates in parallel, repeated queries within a
// session reuse its evaluator's per-catalog tables and scratch buffers
// (no results are remembered), and an LRU cap bounds the session table.  Shutdown is cooperative via context.Context: SIGTERM
// stops new work, in-flight requests finish.
//
// Durability: the -snapshot file is an append-only tick journal
// (internal/plan/journal.go).  A header line carries the magic GNPJ1 and
// the trace digest; each applied tick then appends one record framed by
// its length and a CRC-32C, whose compact binary body holds the tick's
// streamed green-scale changes, its migration schedule as trace indices,
// its lp.Stats, plan summary and scheduler time, and the post-tick warm
// basis (lp.Basis.AppendBinary, itself a checksummed format).  A tick is
// one positioned write(2) from a reused buffer on a file the daemon keeps
// open — no temp file, no rename, and the same bytes at tick 10 and tick
// 10000.  A restarted daemon streams the records: it applies each record's
// scale changes, replays its schedule against a fresh trace start (pure
// fleet/GDFS bookkeeping, no LP work — the same event-sourcing trick the
// emulation determinism tests use), folds the tick into the serving view
// with the accounting a live tick uses, and installs the last record's
// basis; the continued tick stream is bit-identical to a daemon that was
// never stopped and its first solve starts warm.  The first record that is
// short, fails its checksum or does not decode is a torn tail (a crash
// mid-append): it and everything after it is truncated and the daemon
// resumes at the last whole record.  An empty file, a damaged header,
// another trace's digest or the old GNPS1 whole-state snapshot format is
// refused as a unit: logged, replaced by a fresh journal, cold start.
// Appends are not fsynced, so a host crash can lose the records the kernel
// had not yet written back; restore still replays every tick since the
// trace start, so its cost grows with uptime.  `make test-daemon` (CI's
// daemon-smoke job) pins all of this through the real binary: HTTP ticks
// bit-identical to a batch emul.Runner, SIGKILL mid-stream, warm resume
// from the journal.  On the serving edge, /tick and /whatif bodies are
// capped at 1 MiB and plannerd's http.Server bounds header, request and
// idle-connection time.
//
// # Failure semantics: budgets, recovery, degradation
//
// No exported API panics on valid inputs; everything that can go wrong is
// an error, a recovery, or a tagged degradation, layer by layer:
//
//   - internal/lp recovers before it reports.  A solve climbs a structured
//     ladder instead of failing on the first numerical incident: a run of
//     degenerate (zero-step) pivots switches pricing to Bland's rule after a
//     fresh refactorization; a singular basis factorization is repaired in
//     place by ejecting the offending basic column for the slack of an
//     unpivotable row and retrying (up to a small budget); non-finite
//     FTRAN/BTRAN results are caught by NaN/Inf guards and answered with a
//     refactorization rather than a poisoned pivot — including on the
//     optimality exit, so NaN reduced costs can never fake an optimum.  A
//     warm start whose ladder runs out falls back to a cold two-phase solve;
//     only when that fails too does the caller see ErrNumeric.
//     Solution.Stats counts every rung taken (pivots, bound flips,
//     refactorizations, Bland switches, repairs, NaN guards, cold
//     fallbacks).  lp.SolveOptions adds budgets: Deadline and Ctx stop the
//     solve between pivots with ErrDeadline/ErrCancelled (wrapping the
//     context package's errors), and budget stops are final — they never
//     trigger a cold retry.
//   - internal/milp treats budgets as "return your best", not "fail".  When
//     MaxNodes or the Ctx (cancelled, or past its deadline) runs out after
//     an incumbent exists, Solve returns it with a nil error, Proven false
//     and the residual bound Gap; the budget errors (ErrNodeLimit,
//     ErrDeadline, ErrCancelled) only surface when the budget ran out
//     before any feasible solution was found.  core.SolveExact carries
//     both onto its Solution (ExactProven, ExactGap), and the
//     heuristic-vs-exact experiment prints them under -v, so a node-capped
//     search is never passed off as a proven optimum.
//   - internal/sched degrades instead of erroring: if the partition LP
//     fails (numerically or past Options.LPTimeout), Partition returns a
//     feasible static greedy split — current loads clipped to capacity,
//     spare load to the greenest headroom — tagged Plan.Degraded with the
//     reason, so an hourly control loop always has a plan to execute.  The
//     corrupt warm basis is dropped and the next healthy round returns to
//     LP-optimal plans.
//   - internal/anneal, core.Solve, core.SolveExact and the experiment suite
//     accept a context.Context and cancel cooperatively.  Chains poll the
//     context before consuming any randomness, so an uncancelled run is
//     bit-identical to one without a context; a cancelled run stops
//     promptly and hands back the partial best alongside the context error.
//
// Every rung of this ladder is exercised deterministically: internal/lp
// exports named fault points (lp.ArmFault/lp.DisarmFaults — force a
// singular LU, corrupt an eta vector, poison an FTRAN column, expire the
// deadline at an exact pivot, trip the stall detector) that the resilience
// suites in lp, sched and milp use to inject real mid-solve failures
// (`make test-faults` runs them under the race detector).
//
// The benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation; `make bench` snapshots them into a BENCH_<date>.json
// so the performance trajectory is tracked per PR.  BenchmarkCalibration is
// a fixed-work machine-speed probe recorded in every snapshot: benchjson
// -calibrate divides cross-snapshot ns/op deltas by the probe's ratio, so
// diffs taken on a different machine compare code, not hardware.
// BenchmarkLPSolve reports the pivots/op of a cold partition-LP solve next
// to ns/op; internal/lp's BenchmarkLPPricing A/Bs devex against the
// test-only Dantzig and Bland reference rules on the same LP.
// TestExportedSurfaceIsReached is a type-checked census of internal/: it
// fails when an exported function, method, field, constant or variable has
// no reference from non-test code (perfbench/ included).  `make profile` writes CPU and heap profiles of
// BenchmarkSchedulerComputeTime — the end-to-end optimization loop — into
// the gitignored profile/ directory for `go tool pprof`.
package greencloud
