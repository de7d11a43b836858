//go:build race

package chip

// raceEnabled lets pool-identity assertions skip under the race
// detector, where sync.Pool deliberately drops Put items at random.
const raceEnabled = true
