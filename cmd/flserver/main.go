// Command flserver runs a networked secure-aggregation demo over real TCP:
// a hub process routes ciphertexts between client processes and an
// aggregation server, exercising the Fig. 2 protocol end to end on the
// loopback (or a real LAN).
//
// Usage:
//
//	flserver hub    -addr 127.0.0.1:9009
//	flserver server -addr 127.0.0.1:9009 -clients 4
//	flserver client -addr 127.0.0.1:9009 -id 0 -values 0.1,0.2,0.3
//	flserver demo   -clients 4 -dim 8        (all roles in one process)
//
// Degraded modes (see DESIGN.md, "Fault model & degraded modes"):
//
//	-quorum k     server proceeds once k uploads arrive (0 = wait for all)
//	-timeout d    gather deadline; with -quorum the server drops stragglers
//	              still missing at expiry instead of stalling
//	-straggle d   client delays its upload by d (in demo mode: client 0),
//	              simulating a slow participant
//	-chunk n      streamed-pipeline chunk size in plaintexts: clients encrypt
//	              through the chunked double-buffered pipeline (0 = sequential)
//	-pool n       clients precompute n Paillier rⁿ noise terms offline before
//	              encrypting (the nonce pool, re-armed per batch); ciphertexts
//	              are bit-exact with the unpooled path (0 = off)
//	-devices n    every party shards its vector HE ops across n simulated
//	              devices with work stealing under device faults; results
//	              are bit-exact at every n (0 and 1 both mean one device)
//	-trace file   write a Chrome trace-event JSON of the party's sim-time
//	              spans on exit, plus a metrics text dump to stdout (demo
//	              mode shares one trace across the in-process parties)
//
// Robustness (see DESIGN.md, "Byzantine-robust aggregation"):
//
//	-byz kind     arm the seeded demo adversary: the shared seed picks one
//	              compromised client whose upload is rewritten by the named
//	              attack (sign-flip, scale, noise, zero, collude) before
//	              encryption
//	-groups g     server aggregates group-wise: g seeded groups are HE-summed
//	              separately and broadcast as one grouped aggregate
//	-defense c    clients robust-combine the decrypted group means with this
//	              combiner (fedavg, trimmed-mean, median, norm-clip, krum;
//	              default trimmed-mean when -groups > 1)
//
// Cross-device scale (see DESIGN.md, "Cross-device scale"):
//
//	-cohort k     sample k of -clients for the round; every party derives
//	              the same cohort from -seed, and an unsampled client skips
//	              its upload but still receives the broadcast
//	-fanout f     server folds arriving uploads through a fan-out-f
//	              aggregation tree, bounding its live ciphertexts by the
//	              tree depth instead of the cohort size (0 = flat)
//
// Inconsistent flag combinations (quorum above the sampled cohort, more
// groups than sampled uploads, a fan-out of 1) fail at startup with a typed
// ConfigError naming the flag, not mid-round.
//
// Durability (see DESIGN.md, "Durable epochs"):
//
//	-journal f    server: append round state to a write-ahead journal file
//	-resume       server: replay -journal on startup and resume the round
//	              from the last safe boundary (or exit 0 if already done)
//	-failpoint s  server: crash at a named durable boundary (testing only;
//	              "aggregate" dies after the aggregate is journaled)
//
// The first SIGINT/SIGTERM starts a graceful drain: a server with quorum
// met finishes the round; below quorum it journals the abandoned round and
// exits zero. A second signal aborts hard with a nonzero status.
//
// All parties derive the same demo key pair from -seed; in production each
// deployment would provision keys through its own PKI.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flbooster/internal/fl"
	"flbooster/internal/flnet"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
	"flbooster/internal/obs"
	"flbooster/internal/paillier"
)

// demoRound stamps every message of the single demo round so late traffic
// from a previous run is discarded rather than aggregated.
const demoRound = 1

func main() {
	// First SIGINT/SIGTERM starts the graceful drain; a second one means the
	// operator wants out now — a dirty stop, and the only path that exits
	// nonzero without an actual error.
	stop := make(chan struct{})
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		close(stop)
		<-sig
		fmt.Fprintln(os.Stderr, "flserver: second signal, aborting")
		os.Exit(1)
	}()
	if err := run(os.Args[1:], stop); err != nil {
		fmt.Fprintln(os.Stderr, "flserver:", err)
		os.Exit(1)
	}
}

func run(args []string, stop <-chan struct{}) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: flserver <hub|server|client|demo> [flags]")
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9009", "hub address")
	clients := fs.Int("clients", 4, "number of clients")
	id := fs.Int("id", 0, "client id")
	keyBits := fs.Int("bits", 256, "Paillier key size")
	seed := fs.Uint64("seed", 1, "shared demo seed")
	values := fs.String("values", "", "comma-separated gradient values")
	dim := fs.Int("dim", 8, "gradient dimension for demo mode")
	quorum := fs.Int("quorum", 0, "uploads needed to proceed (0 = all clients)")
	timeout := fs.Duration("timeout", 0, "gather deadline (0 = wait forever)")
	straggle := fs.Duration("straggle", 0, "delay this client's upload (demo: client 0)")
	chunk := fs.Int("chunk", 0, "streamed-pipeline chunk size in plaintexts (0 = sequential)")
	pool := fs.Int("pool", 0, "precomputed nonce-pool depth for encrypting parties (0 = off)")
	devices := fs.Int("devices", 0, "shard vector HE ops across this many simulated devices (0 and 1 both mean one device)")
	trace := fs.String("trace", "", "write Chrome trace-event JSON of sim-time spans to this file on exit")
	journal := fs.String("journal", "", "server: write-ahead round journal file (empty = no journal)")
	resume := fs.Bool("resume", false, "server: replay -journal and resume from the last safe boundary")
	failpoint := fs.String("failpoint", "", "server: crash at a named durable boundary (testing; e.g. \"aggregate\")")
	byz := fs.String("byz", "", "attack kind for the seeded demo adversary (empty = all honest)")
	groups := fs.Int("groups", 0, "secure-aggregation group count for the robust defense (0/1 = plain aggregate)")
	defense := fs.String("defense", "", "robust combiner over group means (default trimmed-mean when -groups > 1)")
	cohort := fs.Int("cohort", 0, "sample this many of -clients per round (0 = everyone; derived from -seed)")
	fanout := fs.Int("fanout", 0, "server: fold uploads through an aggregation tree of this fan-out (0 = flat)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if err := (flagConfig{
		cmd: cmd, clients: *clients, id: *id, dim: *dim,
		cohort: *cohort, fanout: *fanout, quorum: *quorum, groups: *groups,
		devices: *devices,
	}).validate(); err != nil {
		return err
	}

	// All parties must agree on the defense policy (the server groups, the
	// clients combine), so it is validated once up front.
	policy := fl.DefensePolicy{Groups: *groups, Combiner: fl.CombinerKind(*defense)}
	if err := policy.Validate(); err != nil {
		return err
	}
	attack := fl.AttackKind(*byz)
	if attack != fl.AttackNone {
		if err := (fl.AdversaryConfig{Seed: *seed, Kind: attack, Count: 1}).Validate(*clients); err != nil {
			return err
		}
	}

	var o *obs.Obs
	if *trace != "" {
		o = obs.New(*seed)
	}

	var err error
	switch cmd {
	case "hub":
		hub, herr := flnet.NewTCPHub(*addr, flnet.GigabitEthernet())
		if herr != nil {
			return herr
		}
		fmt.Println("hub listening on", hub.Addr())
		if stop == nil {
			select {} // route until killed
		}
		<-stop // route until the drain signal, then close cleanly
		return hub.Close()

	case "server":
		err = runServer(serverOpts{
			addr: *addr, clients: *clients, keyBits: *keyBits, seed: *seed,
			quorum: *quorum, timeout: *timeout, groups: *groups,
			cohort: *cohort, fanout: *fanout, devices: *devices,
			journal: *journal, resume: *resume, failpoint: *failpoint,
			stop: stop, o: o,
		})

	case "client":
		var vals []float64
		if vals, err = parseFloats(*values); err != nil {
			return err
		}
		err = runClient(clientOpts{
			addr: *addr, id: *id, clients: *clients, keyBits: *keyBits,
			chunk: *chunk, pool: *pool, devices: *devices,
			seed: *seed, vals: vals, delay: *straggle,
			cohort: *cohort, byz: attack, defense: policy, o: o,
		})

	case "demo":
		err = runDemo(demoOpts{
			clients: *clients, dim: *dim, keyBits: *keyBits, chunk: *chunk, pool: *pool,
			devices: *devices,
			seed:    *seed, quorum: *quorum, timeout: *timeout, straggle: *straggle,
			cohort: *cohort, fanout: *fanout,
			byz: attack, defense: policy, stop: stop, o: o,
		})

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		return err
	}
	return writeObs(o, *trace)
}

// writeObs dumps the bundle on exit: the span trace to path and the metrics
// registry to stdout. No-op when tracing is off.
func writeObs(o *obs.Obs, path string) error {
	if o == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := o.Recorder().WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d sim-time spans to %s\nmetrics:\n", o.Recorder().Len(), path)
	return o.Metrics().WriteText(os.Stdout)
}

// demoContext builds the shared HE context all demo parties derive from the
// seed. A positive chunk streams encryption through the chunked
// double-buffered pipeline, and devices > 1 shards vector HE ops across
// that many simulated devices; the ciphertexts are bit-exact either way. With
// an observability bundle the context traces and meters under the party's
// label (demo mode passes one bundle to every in-process party).
func demoContext(keyBits, clients, chunk, pool, devices int, seed uint64, o *obs.Obs, label string) (*fl.Context, error) {
	p := fl.NewProfile(fl.SystemFLBooster, keyBits, clients)
	p.Seed = seed
	p.Device = gpu.RTX3090()
	p.Chunk = chunk
	p.NoncePool = pool
	p.Devices = devices
	ctx, err := fl.NewContext(p)
	if err != nil {
		return nil, err
	}
	if o != nil {
		ctx.AttachObs(o, label)
	}
	return ctx, nil
}

// serverOpts bundles the aggregation server's configuration; the zero value
// of each optional field (journal, resume, failpoint, stop, o) disables it.
type serverOpts struct {
	addr    string
	clients int
	keyBits int
	seed    uint64
	// quorum and timeout select the degraded gather mode (see DESIGN.md).
	quorum  int
	timeout time.Duration
	// groups > 1 aggregates group-wise: the gathered uploads are split into
	// seeded groups, each HE-summed separately, and the grouped aggregate is
	// broadcast under the "gagg" kind for clients to robust-combine.
	groups int
	// cohort > 0 samples that many of the registered clients for the round
	// (the same seeded draw every party derives); fanout ≥ 2 folds arriving
	// uploads through an aggregation tree so the server's live ciphertexts
	// are bounded by the tree depth, not the cohort size.
	cohort int
	fanout int
	// devices > 1 shards the server's aggregate-and-decrypt vector ops
	// across that many simulated devices; 0 and 1 both mean one device.
	devices int
	// journal appends round state to this write-ahead file; resume replays
	// it on startup and picks the round up from the last safe boundary.
	journal string
	resume  bool
	// failpoint crashes the server at a named durable boundary ("aggregate"
	// dies right after the aggregate record is journaled). Testing only.
	failpoint string
	// stop is the graceful-drain signal (SIGINT/SIGTERM in main): with
	// quorum met the server finishes the round; below quorum it journals
	// the abandoned round and exits cleanly.
	stop <-chan struct{}
	o    *obs.Obs
}

func runServer(opts serverOpts) error {
	// The server only aggregates and decrypts whole batches, so it never
	// needs the streamed path or the encrypt-side nonce pool — chunk and
	// pool 0 regardless of the client flags. The device set does apply: the
	// aggregate-and-decrypt path shards like any other vector HE op.
	ctx, err := demoContext(opts.keyBits, opts.clients, 0, 0, opts.devices, opts.seed, opts.o, fl.ServerName)
	if err != nil {
		return err
	}
	defer ctx.PublishMetrics()
	names := make([]string, opts.clients)
	for i := range names {
		names[i] = fl.ClientName(i)
	}
	// The cohort is the same pure seeded draw every client derives, so no
	// scheduling message is needed: unsampled clients simply skip the upload.
	cohort := fl.SampleCohort(names, opts.cohort, opts.seed, demoRound)
	sampled := make(map[string]bool, len(cohort))
	for _, m := range cohort {
		sampled[m] = true
	}
	if len(cohort) < opts.clients {
		fmt.Printf("sampled cohort of %d/%d clients: %v\n", len(cohort), opts.clients, cohort)
	}
	quorum := opts.quorum
	if quorum <= 0 || quorum > len(cohort) {
		quorum = len(cohort)
	}

	var jr *fl.Journal
	attempt := uint32(1)
	var resumePt *fl.ResumePoint
	if opts.journal != "" {
		store, err := fl.OpenFileStore(opts.journal)
		if err != nil {
			return err
		}
		defer store.Close()
		if jr, err = fl.NewJournal(store); err != nil {
			return err
		}
		if opts.resume {
			recs, err := jr.Records()
			if err != nil {
				return err
			}
			state, err := fl.Replay(recs)
			if err != nil {
				return err
			}
			if state.Completed > 0 {
				fmt.Printf("journal %s: round %d already complete (digest %016x)\n",
					opts.journal, demoRound, state.Digests[demoRound])
				return nil
			}
			if rp := state.Resume; rp != nil {
				attempt = rp.Attempt + 1
				resumePt = rp
				fmt.Printf("journal %s: resuming round %d attempt %d at the %s boundary\n",
					opts.journal, rp.Round, attempt, rp.Phase)
			}
		}
	}

	conn, err := flnet.DialHub(opts.addr, fl.ServerName)
	if err != nil {
		return err
	}
	defer conn.Close()

	// The broadcast kind is a pure function of the (restart-stable) -groups
	// flag, so a resumed journaled aggregate replays under the same kind.
	kind := "agg"
	if opts.groups > 1 {
		kind = flnet.KindGroupAgg
	}

	if resumePt != nil && resumePt.Phase == fl.PhaseBroadcast {
		// The aggregate survived the crash (digest-checked by Replay):
		// replay it straight to the clients without re-gathering.
		return broadcastAggregate(conn, jr, attempt, kind, resumePt.Included, resumePt.Payload, opts.clients)
	}

	if jr != nil {
		rec := fl.JournalRecord{Kind: fl.EventRoundStart, Round: demoRound, Attempt: attempt, Members: names}
		if len(cohort) < len(names) {
			rec.Cohort = cohort
		}
		if err := jr.Append(rec); err != nil {
			return err
		}
	}
	fmt.Printf("server up: %d-bit key, waiting for %d clients (quorum %d)\n", opts.keyBits, len(cohort), quorum)

	// A receiver goroutine turns the blocking Recv into a channel so the
	// gather can select on the deadline and the drain signal without a
	// mid-frame timeout desyncing the stream; the deferred conn.Close
	// unblocks it on every exit path.
	type delivery struct {
		msg flnet.Message
		err error
	}
	msgs := make(chan delivery)
	recvDone := make(chan struct{})
	defer close(recvDone)
	go func() {
		for {
			msg, err := conn.Recv(fl.ServerName)
			select {
			case msgs <- delivery{msg, err}:
				if err != nil {
					return
				}
			case <-recvDone:
				return
			}
		}
	}()

	var deadlineC <-chan time.Time
	if opts.timeout > 0 {
		tm := time.NewTimer(opts.timeout)
		defer tm.Stop()
		deadlineC = tm.C
	}

	// With -fanout each arriving upload is folded into the aggregation
	// tree(s) immediately and its buffer dropped — batches then records only
	// who contributed (nil values) and the server's live ciphertexts are
	// bounded by the tree depth, not the cohort size. Group mode assigns the
	// cohort into seeded groups up front and gives each group its own tree.
	var tree *fl.AggTree
	var groupTrees []*fl.AggTree
	var groupCounts []int
	groupOf := map[string]int{}
	if opts.fanout >= 2 {
		if opts.groups > 1 {
			assignment := fl.AssignGroups(cohort, opts.groups, opts.seed, demoRound)
			groupTrees = make([]*fl.AggTree, len(assignment))
			groupCounts = make([]int, len(assignment))
			for g, members := range assignment {
				if groupTrees[g], err = ctx.NewAggTree(opts.fanout); err != nil {
					return err
				}
				for _, m := range members {
					groupOf[m] = g
				}
			}
		} else if tree, err = ctx.NewAggTree(opts.fanout); err != nil {
			return err
		}
	}

	batches := make(map[string][]paillier.Ciphertext, len(cohort))
	order := make([]string, 0, len(cohort))
	draining := false
gather:
	for len(batches) < len(cohort) {
		select {
		case d := <-msgs:
			if d.err != nil {
				return d.err
			}
			msg := d.msg
			if msg.Kind != "grads" || msg.Round != demoRound {
				fmt.Printf("discarding stale %q from %s (round %d)\n", msg.Kind, msg.From, msg.Round)
				continue
			}
			if !sampled[msg.From] {
				fmt.Printf("discarding upload from %s: not sampled this round\n", msg.From)
				continue
			}
			if _, dup := batches[msg.From]; dup {
				fmt.Printf("discarding duplicate upload from %s\n", msg.From)
				continue
			}
			nats, err := flnet.DecodeNats(msg.Payload)
			if err != nil {
				return err
			}
			cts := make([]paillier.Ciphertext, len(nats))
			for j, n := range nats {
				cts[j] = paillier.Ciphertext{C: n}
			}
			switch {
			case tree != nil:
				if err := tree.Add(cts); err != nil {
					return err
				}
				batches[msg.From] = nil
			case groupTrees != nil:
				g := groupOf[msg.From]
				if err := groupTrees[g].Add(cts); err != nil {
					return err
				}
				groupCounts[g]++
				batches[msg.From] = nil
			default:
				batches[msg.From] = cts
			}
			order = append(order, msg.From)
			fmt.Printf("received %d ciphertexts from %s (%d/%d)\n", len(cts), msg.From, len(batches), len(cohort))
		case <-deadlineC:
			break gather // deadline elapsed with the code below deciding quorum
		case <-opts.stop:
			draining = true
			break gather
		}
	}
	if draining && len(batches) < quorum {
		// Graceful drain below quorum: journal the abandoned round and exit
		// zero — a restart with -resume re-runs the round from the top.
		fmt.Printf("drain signal with %d/%d uploads (quorum %d): abandoning the round\n",
			len(batches), len(cohort), quorum)
		if jr != nil {
			rec := fl.JournalRecord{
				Kind: fl.EventDrained, Round: demoRound, Attempt: attempt,
				Phase: fl.PhaseGather, Reason: "drained below quorum",
			}
			if err := jr.Append(rec); err != nil {
				return err
			}
		}
		return nil
	}
	if len(batches) < quorum {
		return fmt.Errorf("gather deadline with %d/%d uploads, below quorum %d", len(batches), len(cohort), quorum)
	}
	if draining {
		fmt.Println("drain signal with quorum met: finishing the round before exit")
	}
	for _, name := range cohort {
		if _, ok := batches[name]; !ok {
			fmt.Printf("dropping straggler %s (missed the gather deadline)\n", name)
		}
	}

	var raw []byte
	switch {
	case groupTrees != nil:
		// Tree × defense: each group's tree already holds its members' sum.
		// A group emptied by dropped stragglers is skipped rather than
		// framed at size zero (the decryptors divide by the group size).
		sizes := make([]int, 0, len(groupTrees))
		blobs := make([][]byte, 0, len(groupTrees))
		for g, gt := range groupTrees {
			if groupCounts[g] == 0 {
				continue
			}
			root, err := gt.Root()
			if err != nil {
				return err
			}
			nats := make([]mpint.Nat, len(root))
			for i, c := range root {
				nats[i] = c.C
			}
			sizes = append(sizes, groupCounts[g])
			blobs = append(blobs, flnet.EncodeNats(nats))
		}
		if raw, err = flnet.EncodeGroupAgg(sizes, blobs); err != nil {
			return err
		}
		fmt.Printf("tree group-wise aggregation: %d uploads across %d groups %v\n", len(order), len(sizes), sizes)
	case tree != nil:
		root, err := tree.Root()
		if err != nil {
			return err
		}
		nats := make([]mpint.Nat, len(root))
		for i, c := range root {
			nats[i] = c.C
		}
		raw = flnet.EncodeNats(nats)
		stats := tree.Stats()
		fmt.Printf("tree aggregation: %d uploads folded at depth %d (peak %d live ciphertexts)\n",
			len(order), stats.Depth, stats.PeakLiveCts)
	case opts.groups > 1:
		// Group-wise aggregation: the contributors are dealt into seeded
		// groups (same pure assignment the clients can re-derive), each group
		// HE-summed on its own, and the per-group sums framed together so the
		// decryptors can robust-combine the group means.
		assignment := fl.AssignGroups(order, opts.groups, opts.seed, demoRound)
		sizes := make([]int, len(assignment))
		blobs := make([][]byte, len(assignment))
		for g, members := range assignment {
			grouped := make([][]paillier.Ciphertext, len(members))
			for i, name := range members {
				grouped[i] = batches[name]
			}
			agg, err := ctx.AggregateCiphertexts(grouped)
			if err != nil {
				return err
			}
			nats := make([]mpint.Nat, len(agg))
			for i, c := range agg {
				nats[i] = c.C
			}
			sizes[g] = len(members)
			blobs[g] = flnet.EncodeNats(nats)
		}
		if raw, err = flnet.EncodeGroupAgg(sizes, blobs); err != nil {
			return err
		}
		fmt.Printf("group-wise aggregation: %d uploads dealt into %d groups %v\n", len(order), len(sizes), sizes)
	default:
		ordered := make([][]paillier.Ciphertext, 0, len(order))
		for _, name := range order {
			ordered = append(ordered, batches[name])
		}
		agg, err := ctx.AggregateCiphertexts(ordered)
		if err != nil {
			return err
		}
		nats := make([]mpint.Nat, len(agg))
		for i, c := range agg {
			nats[i] = c.C
		}
		raw = flnet.EncodeNats(nats)
	}
	if jr != nil {
		rec := fl.JournalRecord{
			Kind: fl.EventAggregated, Round: demoRound, Attempt: attempt,
			Members: order, Digest: fl.PayloadDigest(raw), Payload: raw,
		}
		if err := jr.Append(rec); err != nil {
			return err
		}
	}
	if opts.failpoint == "aggregate" {
		return fmt.Errorf("failpoint %q: crashing after the aggregate was journaled", opts.failpoint)
	}
	return broadcastAggregate(conn, jr, attempt, kind, order, raw, opts.clients)
}

// broadcastAggregate prefixes the encoded aggregate with the contributor
// count K (so clients can remove the K-party quantization bias and rescale
// to N/K), sends it to every client — stragglers included, so a late
// participant still terminates — and journals the round done.
func broadcastAggregate(conn *flnet.TCPClient, jr *fl.Journal, attempt uint32, kind string, included []string, raw []byte, clients int) error {
	payload := make([]byte, 4, 4+len(raw))
	binary.LittleEndian.PutUint32(payload, uint32(len(included)))
	payload = append(payload, raw...)
	for i := 0; i < clients; i++ {
		msg := flnet.Message{From: fl.ServerName, To: fl.ClientName(i), Kind: kind, Round: demoRound, Payload: payload}
		if err := conn.Send(msg); err != nil {
			return err
		}
	}
	if jr != nil {
		rec := fl.JournalRecord{
			Kind: fl.EventRoundDone, Round: demoRound, Attempt: attempt,
			Members: included, Digest: fl.PayloadDigest(raw),
		}
		if err := jr.Append(rec); err != nil {
			return err
		}
	}
	fmt.Printf("aggregated %d/%d uploads and broadcast the %d-byte aggregate\n", len(included), clients, len(payload))
	return nil
}

// clientOpts bundles a demo client's configuration; zero values of byz,
// defense, delay, and o disable the corresponding behavior.
type clientOpts struct {
	addr    string
	id      int
	clients int
	keyBits int
	chunk   int
	// pool precomputes this many rⁿ noise terms offline before the upload's
	// encryption (re-armed per batch); 0 keeps the online nonce path.
	pool int
	// devices > 1 shards the client's encrypt path across that many
	// simulated devices; 0 and 1 both mean one device.
	devices int
	seed    uint64
	vals    []float64
	delay   time.Duration
	// cohort mirrors the server's -cohort flag: the client derives the same
	// seeded draw and, when unsampled, skips its upload but still waits for
	// the broadcast so every party terminates with the round's aggregate.
	cohort int
	// byz arms the seeded demo adversary: when the shared seed selects this
	// client as compromised, its upload is rewritten by the named attack
	// before encryption. Every party derives the same cohort from the seed.
	byz fl.AttackKind
	// defense mirrors the server's -groups flag: with Groups > 1 the client
	// expects a grouped aggregate and robust-combines the group means.
	defense fl.DefensePolicy
	o       *obs.Obs
}

// inCohort reports whether the named client is in the round's sampled
// cohort — the same pure seeded draw the server makes, so the parties agree
// without any scheduling message.
func inCohort(name string, clients, cohort int, seed uint64) bool {
	if cohort <= 0 || cohort >= clients {
		return true
	}
	names := make([]string, clients)
	for i := range names {
		names[i] = fl.ClientName(i)
	}
	for _, m := range fl.SampleCohort(names, cohort, seed, demoRound) {
		if m == name {
			return true
		}
	}
	return false
}

func runClient(opts clientOpts) error {
	name := fl.ClientName(opts.id)
	clients := opts.clients
	ctx, err := demoContext(opts.keyBits, clients, opts.chunk, opts.pool, opts.devices, opts.seed, opts.o, name)
	if err != nil {
		return err
	}
	defer ctx.PublishMetrics()
	conn, err := flnet.DialHub(opts.addr, name)
	if err != nil {
		return err
	}
	defer conn.Close()

	if !inCohort(name, clients, opts.cohort, opts.seed) {
		fmt.Printf("%s not sampled this round: skipping upload, awaiting the broadcast\n", name)
	} else {
		vals := opts.vals
		if opts.byz != fl.AttackNone {
			adv, err := fl.NewAdversary(fl.AdversaryConfig{Seed: opts.seed ^ 0xad3, Kind: opts.byz, Count: 1}, clients)
			if err != nil {
				return err
			}
			if adv.IsMalicious(opts.id) {
				fmt.Printf("%s is compromised: applying the %s attack to its upload\n", name, opts.byz)
			}
			vals = adv.Apply(demoRound, opts.id, vals)
		}

		cts, err := ctx.EncryptGradients(vals)
		if err != nil {
			return err
		}
		nats := make([]mpint.Nat, len(cts))
		for i, c := range cts {
			nats[i] = c.C
		}
		if opts.delay > 0 {
			fmt.Printf("%s straggling for %v before upload\n", name, opts.delay)
			time.Sleep(opts.delay)
		}
		if err := conn.Send(flnet.Message{From: name, To: fl.ServerName, Kind: "grads", Round: demoRound, Payload: flnet.EncodeNats(nats)}); err != nil {
			return err
		}
		fmt.Printf("%s sent %d ciphertexts (%d gradients)\n", name, len(cts), len(vals))
	}

	msg, err := conn.Recv(name)
	if err != nil {
		return err
	}
	wantKind := "agg"
	if opts.defense.Enabled() {
		wantKind = flnet.KindGroupAgg
	}
	if msg.Kind != wantKind {
		return fmt.Errorf("%s: aggregate kind %q, want %q (server and clients must agree on -groups)", name, msg.Kind, wantKind)
	}
	if len(msg.Payload) < 4 {
		return fmt.Errorf("%s: aggregate payload too short", name)
	}
	k := int(binary.LittleEndian.Uint32(msg.Payload[:4]))
	if k < 1 || k > clients {
		return fmt.Errorf("%s: implausible contributor count %d", name, k)
	}
	if opts.defense.Enabled() {
		return decryptGrouped(ctx, name, msg.Payload[4:], len(opts.vals), k, clients, opts.defense)
	}
	aggNats, err := flnet.DecodeNats(msg.Payload[4:])
	if err != nil {
		return err
	}
	aggCts := make([]paillier.Ciphertext, len(aggNats))
	for i, n := range aggNats {
		aggCts[i] = paillier.Ciphertext{C: n}
	}
	sums, err := ctx.DecryptAggregated(aggCts, len(opts.vals), k)
	if err != nil {
		return err
	}
	if k < clients {
		// Quorum aggregate: rescale the K-party sum to a full-federation
		// estimate, mirroring internal/fl's round runtime.
		scale := float64(clients) / float64(k)
		for i := range sums {
			sums[i] *= scale
		}
		fmt.Printf("%s decrypted %d-of-%d aggregate (scaled x%.2f): %v\n", name, k, clients, scale, sums)
		return nil
	}
	fmt.Printf("%s decrypted aggregate: %v\n", name, sums)
	return nil
}

// decryptGrouped decodes a grouped aggregate, decrypts each group's sum at
// its own contributor count, reduces the sums to group means, and
// robust-combines them — the same defended-decrypt path internal/fl runs,
// over the demo's TCP framing. The result is scaled back to a
// full-federation sum like the plain path.
func decryptGrouped(ctx *fl.Context, name string, raw []byte, dim, k, clients int, policy fl.DefensePolicy) error {
	sizes, blobs, err := flnet.DecodeGroupAgg(raw)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	total := 0
	groups := make([]fl.GroupUpdate, len(blobs))
	for g, blob := range blobs {
		gnats, err := flnet.DecodeNats(blob)
		if err != nil {
			return fmt.Errorf("%s: group %d: %w", name, g, err)
		}
		cts := make([]paillier.Ciphertext, len(gnats))
		for i, n := range gnats {
			cts[i] = paillier.Ciphertext{C: n}
		}
		mean, err := ctx.DecryptAggregated(cts, dim, sizes[g])
		if err != nil {
			return fmt.Errorf("%s: group %d: %w", name, g, err)
		}
		for i := range mean {
			mean[i] /= float64(sizes[g])
		}
		groups[g] = fl.GroupUpdate{Mean: mean, Size: sizes[g]}
		total += sizes[g]
	}
	if total != k {
		return fmt.Errorf("%s: group sizes sum to %d, header says %d contributors", name, total, k)
	}
	agg, err := policy.NewAggregator()
	if err != nil {
		return err
	}
	combined, stats, err := agg.Combine(groups)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for i := range combined {
		combined[i] *= float64(clients)
	}
	fmt.Printf("%s decrypted defended aggregate (%s over %d groups, %d coords trimmed, %d clipped, %d dropped): %v\n",
		name, agg.Name(), len(groups), stats.TrimmedCoords, stats.Clipped, stats.GroupsDropped, combined)
	return nil
}

// demoOpts bundles the all-in-one demo's configuration.
type demoOpts struct {
	clients  int
	dim      int
	keyBits  int
	chunk    int
	pool     int
	devices  int
	seed     uint64
	quorum   int
	timeout  time.Duration
	straggle time.Duration
	// cohort and fanout select cross-device mode: a seeded sub-population
	// cohort and hierarchical tree aggregation at the server.
	cohort int
	fanout int
	// byz and defense arm the adversary and the group-wise robust decrypt;
	// every in-process party shares them the way real deployments would
	// share the flags.
	byz     fl.AttackKind
	defense fl.DefensePolicy
	stop    <-chan struct{}
	o       *obs.Obs
}

// runDemo runs hub, server, and clients in one process over loopback TCP.
// With straggle > 0, client 0 delays its upload; combined with -quorum and
// -timeout this demonstrates the round completing without it.
func runDemo(opts demoOpts) error {
	hub, err := flnet.NewTCPHub("127.0.0.1:0", flnet.GigabitEthernet())
	if err != nil {
		return err
	}
	defer hub.Close()
	fmt.Println("demo hub on", hub.Addr())

	clients := opts.clients
	errs := make(chan error, clients+1)
	go func() {
		errs <- runServer(serverOpts{
			addr: hub.Addr(), clients: clients, keyBits: opts.keyBits, seed: opts.seed,
			quorum: opts.quorum, timeout: opts.timeout, groups: opts.defense.Groups,
			cohort: opts.cohort, fanout: opts.fanout, devices: opts.devices,
			stop: opts.stop, o: opts.o,
		})
	}()

	rng := mpint.NewRNG(opts.seed)
	want := make([]float64, opts.dim)
	for c := 0; c < clients; c++ {
		vals := make([]float64, opts.dim)
		for i := range vals {
			vals[i] = rng.Float64()*0.5 - 0.25
			want[i] += vals[i]
		}
		delay := time.Duration(0)
		if c == 0 {
			delay = opts.straggle
		}
		go func(id int, vals []float64, delay time.Duration) {
			errs <- runClient(clientOpts{
				addr: hub.Addr(), id: id, clients: clients, keyBits: opts.keyBits,
				chunk: opts.chunk, pool: opts.pool, devices: opts.devices,
				seed: opts.seed, vals: vals, delay: delay,
				cohort: opts.cohort, byz: opts.byz, defense: opts.defense, o: opts.o,
			})
		}(c, vals, delay)
	}
	for i := 0; i < clients+1; i++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	fmt.Printf("expected full-federation sums (all honest): %v\n", want)
	bytes, msgs, _ := hub.Meter().Snapshot()
	fmt.Printf("hub traffic: %d bytes across %d messages\n", bytes, msgs)
	if opts.o != nil {
		hub.Meter().Publish(opts.o.Metrics(), "net.hub")
	}
	return nil
}

func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, fmt.Errorf("no -values given")
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("value %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}
