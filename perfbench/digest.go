package main

// recordedDigest pins the simulated counters (E-refs, E-misses, cycles,
// instructions, dispatches of every cell) of each simulation workload
// on the default seed. A change that moves one of them changes what is
// simulated, not how fast; re-record only for such a change, and say so.
var recordedDigest = map[string]string{
	"fig9-grid":  "dc3fcb7cd8ad21a8c77814be",
	"fine-grain": "0288d9dddb8515f3375aae54",
}
