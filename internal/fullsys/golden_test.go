package fullsys

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"solarcore/internal/atmos"
	"solarcore/internal/pv"
	"solarcore/internal/sim"
)

// TestFullSystemGolden pins the full-system day's output bytes: a
// refactor of the device allocator or the core adapter must leave the
// result's JSON hash unchanged. AZ/Apr, one module, 2-minute sub-samples.
func TestFullSystemGolden(t *testing.T) {
	tr := atmos.Generate(atmos.AZ, atmos.Apr, atmos.GenConfig{})
	day, err := sim.NewSolarDay(tr, pv.BP3180N(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(RunDay(day, testSystem(t), 10, 2, 0.96))
	if err != nil {
		t.Fatal(err)
	}
	const pinned = "51f0a85f1ead4645165bab1878fa6263e8dbfd2e9557c1ccffe6e9f4190ba0c5"
	sum := sha256.Sum256(js)
	if got := hex.EncodeToString(sum[:]); got != pinned {
		t.Errorf("hash %s, pinned %s", got, pinned)
	}
}
