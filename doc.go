// Package reuseblock reproduces "Quantifying the Impact of Blocklisting in
// the Age of Address Reuse" (Ramanathan, Hossain, Mirkovic, Yu, Afroz —
// ACM IMC 2020) as a self-contained Go system.
//
// The paper's two reuse-detection techniques — a BitTorrent DHT crawler for
// NATed addresses and a RIPE Atlas connection-log pipeline for dynamically
// allocated prefixes — are implemented in internal/crawler and
// internal/ripeatlas. Because the live Internet cannot ship in a module,
// every substrate the measurements ran against is rebuilt: a deterministic
// discrete-event network with NAT gateways (internal/netsim), a full
// bencode/KRPC/DHT stack (internal/bencode, internal/krpc, internal/dht), a
// synthetic Internet with ground truth (internal/blgen), the 151-blocklist
// feed model (internal/blocklist), the Cai et al. ICMP census baseline
// (internal/icmpsurvey), and the operator survey (internal/survey).
//
// internal/core ties the stages into a Study whose Report reproduces every
// table and figure of the paper; golden_test.go in this directory pins each
// of them, and each ablation, to its committed file under bench_artifacts/.
// See README.md, DESIGN.md and EXPERIMENTS.md.
package reuseblock
