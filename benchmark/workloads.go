package main

// The workloads, with the constants frozen on the commit that added the
// benchmark (2 shared cores, go1.24): rates are 25%, 50% and 70% of that
// commit's saturation throughput (960 000, 75 000 and 33 000 events/s,
// 2 700 transactions/s), limitMs ten times its median latency at r1 (0.80,
// 3.1, 6.6 and 0.85 ms). read_mostly has one writer rate and no ladder;
// its limit is ten write periods. A later change is measured against these
// numbers, never against its own.
var workloads = map[string]workload{
	"stream_hot": &streamSpec{name: "stream_hot", objects: 32, durable: true,
		rates: [3]float64{240000, 480000, 670000}, limitMs: 8, gateEvents: 20000},
	"stream_wide": &streamSpec{name: "stream_wide", objects: 4096, zipf: true, durable: true,
		rates: [3]float64{19000, 38000, 53000}, limitMs: 31, gateEvents: 20000},
	"stream_rules": &streamSpec{name: "stream_rules", objects: ruleClasses * rulesPerObject, rules: true,
		rates: [3]float64{8300, 17000, 23000}, limitMs: 66, gateEvents: 20000},
	"oltp_durable": &oltpSpec{name: "oltp_durable", stocks: 250,
		rates: [3]float64{680, 1400, 1900}, limitMs: 8.5},
	"read_mostly": &readSpec{name: "read_mostly", accts: 2048, writerRate: 2000, limitMs: 5},
}
