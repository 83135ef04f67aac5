//go:build race

package campaign

// raceEnabled reports a -race build. The race detector's sync.Pool drops
// entries at random, so encoding/json's pooled encoder state is made
// anew now and then, and allocation counts that include an encode are
// not fixed.
const raceEnabled = true
