// Fleet: three solard serving cores behind one solargate router, all
// in-process. Sixty distinct day specs are consistent-hashed across the
// shards, each shard's result cache owns its slice of the key space,
// and the engine's determinism guarantees the routed answers are
// byte-identical to a direct ask — routing is pure placement policy.
//
// This example wires the exact pieces the binaries use: internal/serve
// (the solard core), internal/route (the solargate core) and the public
// solarcore/client wire contract.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"solarcore"
	"solarcore/client"
	"solarcore/internal/route"
	"solarcore/internal/serve"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// 1. Three simulation nodes, each with its own cache and worker
	// pool — in production these are three `solard` processes.
	var nodeURLs []string
	for i := 0; i < 3; i++ {
		srv := serve.New(serve.Config{Clock: time.Now})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer func() { _ = srv.Close() }()
		nodeURLs = append(nodeURLs, ts.URL)
	}

	// 2. One gate over the fleet — in production this is `solargate
	// -backends ...`. The fixed hedge delay keeps this cached walkthrough
	// from racing duplicate simulations.
	rt, err := route.New(route.Config{
		Backends: nodeURLs,
		HedgeMin: 250 * time.Millisecond,
		HedgeMax: 250 * time.Millisecond,
		Clock:    time.Now,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = rt.Close() }()
	gate := httptest.NewServer(rt.Handler())
	defer gate.Close()

	// 3. Clients speak one typed wire contract to nodes and gate alike.
	gateCli := client.New(gate.URL)
	nodeCli := client.New(nodeURLs[0])

	// 4. Sixty distinct specs spread over the ring by RunSpec.Hash.
	shards := map[string]bool{}
	identical := true
	for day := 0; day < 60; day++ {
		req := client.RunRequest{RunSpec: solarcore.RunSpec{Day: day, StepMin: 8}}
		viaGate, err := gateCli.Run(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		shards[viaGate.Backend] = true
		direct, err := nodeCli.Run(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(viaGate.Body, direct.Body) {
			identical = false
		}
	}
	fmt.Printf("runs routed        : 60 specs over %d shards\n", len(shards))
	fmt.Printf("byte-identical     : %v (gate vs direct node, every spec)\n", identical)

	// 5. Repeating one spec hits the same shard's cache.
	again, err := gateCli.Run(ctx, client.RunRequest{RunSpec: solarcore.RunSpec{Day: 0, StepMin: 8}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repeat disposition : cache %q route %q\n", again.Cache, again.Route)

	// 6. One scrape sees the whole fleet: the gate merges its route_*
	// registry with every node's serve_* snapshot.
	snap, err := gateCli.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	// How the 121 simulation requests split between fresh runs and cache
	// hits depends on where the ring placed each key, but their sum is
	// invariant — print that so identical runs print identical numbers.
	fmt.Printf("fleet metrics      : %.0f simulation requests answered fleet-wide (runs + cache hits)\n",
		snap.Counters["serve_runs_total"]+snap.Counters["serve_cache_hits_total"])

	res, err := again.Decode()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sample result      : %s %s — %.0f Wh solar, %.1f%% utilization\n",
		res.Policy, res.Label, res.SolarWh, res.Utilization()*100)
}
