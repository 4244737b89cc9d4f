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
		}, "8f0e1fba0950ca6ff15aa492ad5ef3d03031e499b5e94aaa7584613577f28ea4"},
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
		}, "d7343ca100228d58afd6f218140b9d1c1585f58d5daa5f86b9726299518bdc1c"},
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
		}, "81880fd9f41993e084fc8deb8f0b48a2a64b5ef2ebc592806e74cc6bbe36e970"},
		{"FillBudget/midday", func(t *testing.T) any {
			c := testCluster(t, 4, 25, 0)
			c.At(720)
			return snap(c, c.FillBudget(300))
		}, "efa6a91a2a5a38b4266aa85a5599364f9ca642e28c7aa81e1633150592e4aec1"},
		{"FillBudgetFairShare/midday", func(t *testing.T) any {
			c := testCluster(t, 4, 25, 0)
			c.At(720)
			return snap(c, c.FillBudgetFairShare(300))
		}, "e3bf97e08d06ff32492f4b2157924030d7e11c4132f1405e50f3fc2d0281ebdd"},
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
