package dc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"solarcore/internal/fault"
)

// snapshot is a cluster's state after one budget fill: the power the
// fill returned, the throughput it reached and every node's levels.
type snapshot struct {
	PowerW      float64
	GIPS        float64
	ActiveNodes int
	Levels      [][]int
}

func snap(c *Cluster, p float64) snapshot {
	s := snapshot{PowerW: p, GIPS: c.Throughput(), ActiveNodes: c.ActiveNodes()}
	for _, n := range c.Nodes {
		s.Levels = append(s.Levels, n.Chip.Levels())
	}
	return s
}

// TestClusterGolden pins the cluster path's output bytes: a refactor of
// the cluster allocator or day loop must leave each row's JSON hash
// unchanged. AZ/Apr on a 4-module array, 4 nodes, 25 W node overhead.
func TestClusterGolden(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T) any
		hash string
	}{
		{"RunDay/clean", func(t *testing.T) any {
			return RunDay(faultTestDay(t), testCluster(t, 4, 25, 0), 2, nil)
		}, "f697c7c6a831a7cccd9fb1d8d787ef2109bfb050a8aa0beb799e534104bb01d7"},
		{"RunDay/cloud+core-fail/cap60", func(t *testing.T) any {
			s, err := fault.ParseSpec("cloud:t0=600,t1=700,i=0.7;core-fail:t0=650,t1=760,i=0.5")
			if err != nil {
				t.Fatal(err)
			}
			res := RunDay(faultTestDay(t), testCluster(t, 4, 25, 60), 2, s)
			if res.FaultWindows != 2 || res.SolarWh <= 0 {
				t.Errorf("fault windows = %d, solar %v Wh: want 2 windows on a solar day", res.FaultWindows, res.SolarWh)
			}
			return res
		}, "f400f5e62465fb80bae1fcf2a9a88fe93ce2b57a1fe0d80678c8b07bfb3a05f3"},
		{"RunDay/string-cut+conv-derate+core-throttle", func(t *testing.T) any {
			s, err := fault.ParseSpec("string-cut:t0=580,t1=680,i=0.5;conv-derate:t0=640,t1=720,i=0.3;" +
				"core-throttle:t0=700,t1=800,i=0.6")
			if err != nil {
				t.Fatal(err)
			}
			res := RunDay(faultTestDay(t), testCluster(t, 4, 25, 0), 2, s)
			if res.FaultWindows != 3 || res.SolarWh <= 0 {
				t.Errorf("fault windows = %d, solar %v Wh: want 3 windows on a solar day", res.FaultWindows, res.SolarWh)
			}
			return res
		}, "5777c4c7d4e9b2a903867cb77f04237e9b9263a5cea32ae9125d765feb2af703"},
		{"FillBudget/midday", func(t *testing.T) any {
			c := testCluster(t, 4, 25, 0)
			c.At(720)
			return snap(c, c.FillBudget(300))
		}, "90ae2fc940949b3da3d7b2ff4220e9bdc7714e14f6f895d553250808fe4c4e08"},
		{"FillBudgetFairShare/midday", func(t *testing.T) any {
			c := testCluster(t, 4, 25, 0)
			c.At(720)
			return snap(c, c.FillBudgetFairShare(300))
		}, "5b43f9b9adde90280de7e86e749e37fca16b3f1146a2672bc494ac87035d3de8"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			js, err := json.Marshal(row.run(t))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(js)
			if got := hex.EncodeToString(sum[:]); got != row.hash {
				t.Errorf("hash %s, pinned %s", got, row.hash)
			}
		})
	}
}
