// Command solarfleet simulates a solar-powered server cluster sharing one
// PV array: hierarchical throughput-power-ratio allocation across nodes
// and cores, emergent consolidation under PSU overhead, and per-node power
// caps.
//
// Usage:
//
//	solarfleet [-nodes 4] [-panels 4] [-site AZ] [-season Apr] \
//	           [-overhead 25] [-cap 0] [-step 1] [-days 1] \
//	           [-faults spec] [-metrics]
//
// -metrics builds one metrics registry per node from the day's per-node
// results, merges the snapshots across the fleet (obs.MergeSnapshots) and
// prints the aggregate as JSON. -faults installs a deterministic
// fault-injection schedule over the shared array and node chips
// (dc.RunDay). -days N simulates N consecutive weather days on a
// worker pool — one fresh cluster per day — and prints per-day rows plus
// totals; a day whose worker panics is reported by index and weather
// label without taking down the fleet, and the command exits non-zero.
//
// SIGINT/SIGTERM cancel the worker pool cooperatively (the same
// internal/sigctx plumbing as solard's graceful shutdown): days already
// simulated are flushed as partial rows plus totals, unstarted days are
// reported as canceled, and the command exits non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"solarcore/internal/atmos"
	"solarcore/internal/dc"
	"solarcore/internal/fault"
	"solarcore/internal/obs"
	"solarcore/internal/par"
	"solarcore/internal/pv"
	"solarcore/internal/sigctx"
	"solarcore/internal/sim"
	"solarcore/internal/workload"
)

func main() {
	ctx, stop := sigctx.WithShutdown(context.Background())
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// pf and pln write best-effort CLI output; a console write error is not
// actionable mid-run, so it is discarded explicitly.
func pf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func pln(w io.Writer, args ...any) {
	_, _ = fmt.Fprintln(w, args...)
}

// fail prints one prefixed error line and returns the exit code.
func fail(stderr io.Writer, format string, args ...any) int {
	pf(stderr, "solarfleet: "+format+"\n", args...)
	return 1
}

// fleetMetrics folds each node's share of the day into its own registry
// (as a per-node agent would) and merges the snapshots into one fleet
// aggregate: counters sum across nodes, per-node gauges keep their
// distinct names, and the active-minutes histogram pools every node.
func fleetMetrics(res dc.DayResult) obs.Snapshot {
	snaps := make([]obs.Snapshot, 0, len(res.PerNode))
	for _, n := range res.PerNode {
		reg := obs.NewRegistry()
		reg.Add("node_solar_wh_total", n.SolarWh)
		reg.Add("node_ginstr_solar_total", n.GInstrSolar)
		reg.Add("node_active_min_total", n.ActiveMin)
		reg.Set("node_active_min{node="+n.Name+"}", n.ActiveMin)
		reg.Set("node_solar_wh{node="+n.Name+"}", n.SolarWh)
		reg.Observe("node_active_min_pooled", n.ActiveMin)
		snaps = append(snaps, reg.Snapshot())
	}
	return obs.MergeSnapshots(snaps...)
}

// dayJob is one weather day's work order and outcome in the -days pool.
type dayJob struct {
	trace *atmos.Trace
	res   dc.DayResult
	err   error
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("solarfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodes := fs.Int("nodes", 4, "server nodes in the cluster")
	panels := fs.Int("panels", 4, "parallel 180 W panels in the shared array")
	siteCode := fs.String("site", "AZ", "site code: AZ, CO, NC or TN")
	seasonName := fs.String("season", "Apr", "season: Jan, Apr, Jul or Oct")
	overhead := fs.Float64("overhead", 25, "fixed PSU/fan power per active node (W)")
	capW := fs.Float64("cap", 0, "per-node power cap including overhead (W, 0 = uncapped)")
	step := fs.Float64("step", 1, "sub-sampling step in minutes")
	day := fs.Int("day", 0, "weather day index")
	days := fs.Int("days", 1, "simulate this many consecutive weather days in parallel")
	fair := fs.Bool("fair", false, "show the fair-share baseline allocation at midday too")
	faultsSpec := fs.String("faults", "", "fault-injection schedule: kind:t0=M,t1=M,i=F[,seed=N][;...]")
	metrics := fs.Bool("metrics", false, "print merged per-node metrics snapshots as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Fail fast: resolve every name-bearing flag before any simulation
	// starts or output is written.
	site, err := atmos.SiteByCode(*siteCode)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	season, err := atmos.SeasonByName(*seasonName)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	faultSched, err := fault.ParseSpec(*faultsSpec)
	if err != nil {
		return fail(stderr, "%v", err)
	}

	var mixes []workload.Mix
	for _, name := range []string{"HM2", "ML2", "M2", "L2"} {
		m, err := workload.MixByName(name)
		if err != nil {
			return fail(stderr, "%v", err)
		}
		mixes = append(mixes, m)
	}
	mkCluster := func() (*dc.Cluster, error) {
		return dc.New(dc.Config{
			Nodes:         *nodes,
			Mixes:         mixes,
			NodeOverheadW: *overhead,
			NodeCapW:      *capW,
		})
	}
	cluster, err := mkCluster()
	if err != nil {
		return fail(stderr, "%v", err)
	}

	if *days > 1 {
		return runDays(ctx, stdout, stderr, site, season, *days, *panels, *step, mkCluster, faultSched)
	}

	tr := atmos.Generate(site, season, atmos.GenConfig{Day: *day})
	solarDay, err := sim.NewSolarDay(tr, pv.BP3180N(), 1, *panels)
	if err != nil {
		return fail(stderr, "%v", err)
	}

	res := dc.RunDay(solarDay, cluster, *step, faultSched)

	pf(stdout, "cluster      : %d nodes, %d×180 W array, %s\n", *nodes, *panels, tr.Label())
	pf(stdout, "solar energy : %.0f Wh (%.1f%% utilization of %.0f Wh available)\n",
		res.SolarWh, res.Utilization()*100, res.MPPEnergyWh)
	pf(stdout, "utility      : %.0f Wh\n", res.UtilityWh)
	pf(stdout, "performance  : %.0f giga-instructions on solar\n", res.GInstrSolar)
	pf(stdout, "solar time   : %.1f%% of daytime\n", 100*res.SolarMin/res.DaytimeMin)
	pf(stdout, "consolidation: %.2f nodes active on average (of %d)\n", res.MeanActiveNodes, *nodes)
	if res.FaultWindows > 0 {
		pf(stdout, "faults       : %d injection windows\n", res.FaultWindows)
	}

	if *metrics {
		pln(stdout, "\nfleet metrics (merged across nodes):")
		if err := fleetMetrics(res).WriteJSON(stdout); err != nil {
			return fail(stderr, "%v", err)
		}
	}

	if *fair {
		fairCluster, err := mkCluster()
		if err != nil {
			return fail(stderr, "%v", err)
		}
		cluster2, err := mkCluster()
		if err != nil {
			return fail(stderr, "%v", err)
		}
		budget := 0.96 * solarDay.MPPAt(720) * 0.95
		fairCluster.At(720)
		cluster2.At(720)
		fairCluster.FillBudgetFairShare(budget)
		cluster2.FillBudget(budget)
		pf(stdout, "\nmidday baseline comparison at %.0f W budget:\n", budget)
		pf(stdout, "  global TPR : %d active nodes, %6.2f GIPS\n", cluster2.ActiveNodes(), cluster2.Throughput())
		pf(stdout, "  fair share : %d active nodes, %6.2f GIPS\n", fairCluster.ActiveNodes(), fairCluster.Throughput())
	}

	pln(stdout, "\nmidday allocation snapshot:")
	cluster.At(720)
	cluster.FillBudget(0.96 * solarDay.MPPAt(720) * 0.95)
	for _, n := range cluster.Nodes {
		state := "parked"
		if n.Active() {
			state = "active"
		}
		pf(stdout, "  %s [%s]  %6.1f W  %6.2f GIPS  levels %v\n",
			n.Name, state, n.Power(), n.Throughput(), n.Chip.Levels())
	}
	return 0
}

// runDays simulates n consecutive weather days on a bounded worker pool.
// Each day gets a fresh cluster so per-day results are independent; a
// panicking worker is contained and reported with the day index and
// weather label instead of crashing the whole fleet. A cancellation on
// ctx (SIGINT/SIGTERM via main) stops feeding the pool: in-flight days
// finish, completed days are flushed as partial rows plus totals, and
// the command exits non-zero.
func runDays(ctx context.Context, stdout, stderr io.Writer, site atmos.Site, season atmos.Season,
	n, panels int, step float64, mkCluster func() (*dc.Cluster, error), s *fault.Schedule) int {

	jobs := make([]dayJob, n)
	for i, tr := range atmos.GenerateRun(site, season, n, atmos.GenConfig{}) {
		jobs[i].trace = tr
	}
	fed := par.Each(ctx, n, runtime.NumCPU(), func(i int) {
		jobs[i].err = simDay(&jobs[i], panels, step, mkCluster, s)
	})
	canceled := ctx.Err() != nil

	pf(stdout, "fleet        : %d days at %s, %s, %d×180 W array\n", n, site.Name, season, panels)
	pln(stdout, "day  weather                solar_wh  util%  ginstr  active_nodes")
	var totalWh, totalG float64
	failed, skipped, completed := 0, 0, 0
	for i, j := range jobs {
		switch {
		case i >= fed: // never started: the run was canceled first
			skipped++
			pf(stdout, "%3d  %-22s  CANCELED\n", i, j.trace.Label())
		case j.err != nil:
			failed++
			pf(stderr, "solarfleet: %v\n", j.err)
			pf(stdout, "%3d  %-22s  FAILED\n", i, j.trace.Label())
		default:
			completed++
			pf(stdout, "%3d  %-22s  %8.0f  %5.1f  %6.0f  %12.2f\n",
				i, j.trace.Label(), j.res.SolarWh, j.res.Utilization()*100, j.res.GInstrSolar, j.res.MeanActiveNodes)
			totalWh += j.res.SolarWh
			totalG += j.res.GInstrSolar
		}
	}
	pf(stdout, "total        : %.0f Wh solar, %.0f giga-instructions over %d of %d days (%d failed, %d canceled)\n",
		totalWh, totalG, completed, n, failed, skipped)
	if canceled {
		pf(stderr, "solarfleet: interrupted: %d of %d days flushed before cancellation\n", completed, n)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// simDay runs one fleet day end to end, converting a worker panic into an
// error that names the day.
func simDay(j *dayJob, panels int, step float64, mkCluster func() (*dc.Cluster, error), s *fault.Schedule) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("day %s: panic: %v", j.trace.Label(), r)
		}
	}()
	cluster, err := mkCluster()
	if err != nil {
		return fmt.Errorf("day %s: %w", j.trace.Label(), err)
	}
	solarDay, err := sim.NewSolarDay(j.trace, pv.BP3180N(), 1, panels)
	if err != nil {
		return fmt.Errorf("day %s: %w", j.trace.Label(), err)
	}
	j.res = dc.RunDay(solarDay, cluster, step, s)
	return nil
}
