//! The eighteen parametrizable connector families of Fig. 12.
//!
//! The paper benchmarks "a comprehensive selection of eighteen connectors,
//! fully covering the major examples of parametrizable connectors in the
//! Reo literature" without naming them; this module takes the canonical
//! literature set (mergers, replicators, routers, sequencers, alternators,
//! barriers, locks, semaphores, shared variables, master–slaves patterns,
//! rings, pipelines, …), each expressed in the textual syntax of Sect. IV-B
//! and parametric in the number of tasks.
//!
//! Every family carries driver metadata so the Fig. 12 harness can spawn
//! no-compute sender/receiver tasks on the right port arrays.

use reo_core::ir::Program;
use reo_dsl::parse_program;

/// Driver role for one port array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Spawn a thread per port sending as fast as possible.
    Send,
    /// Spawn a thread per port receiving as fast as possible.
    Recv,
}

/// One parametrized connector family.
#[derive(Clone)]
pub struct Family {
    /// Short benchmark name (also the row label of the Fig. 12 table).
    pub name: &'static str,
    /// Definition name inside [`Family::source`].
    pub def: &'static str,
    /// DSL source text.
    pub source: &'static str,
    /// Array sizes for a run with `n` scalable tasks.
    pub sizes: fn(usize) -> Vec<(&'static str, usize)>,
    /// Independent driver loops per array.
    pub drivers: &'static [(&'static str, Role)],
    /// Arrays driven *pairwise* by one thread alternating sends (protocol
    /// families like locks: acquire then release).
    pub paired_sends: &'static [(&'static str, &'static str)],
    /// True if a single product state can fan out exponentially many
    /// transitions (independent constituents) — the harness caps N for
    /// non-partitioned runs on these.
    pub exponential_fanout: bool,
}

impl Family {
    /// Parse this family's program.
    pub fn program(&self) -> Program {
        parse_program(self.source)
            .unwrap_or_else(|e| panic!("family `{}` source does not parse: {e}", self.name))
    }
}

/// All eighteen families, in the order the harness reports them.
pub fn families() -> Vec<Family> {
    vec![
        Family {
            name: "merger",
            def: "MergerN",
            source: "
MergerN(tl[];hd) =
  if (#tl == 1) { Sync(tl[1];hd) }
  else {
    Merg2(tl[1],tl[2];m[2])
    mult prod (i:3..#tl) Merg2(m[i-1],tl[i];m[i])
    mult Sync(m[#tl];hd)
  }
",
            sizes: |n| vec![("tl", n)],
            drivers: &[("tl", Role::Send), ("hd", Role::Recv)],
            paired_sends: &[],
            exponential_fanout: false,
        },
        Family {
            name: "replicator",
            def: "ReplN",
            source: "
ReplN(tl;hd[]) =
  if (#hd == 1) { Sync(tl;hd[1]) }
  else {
    Repl2(tl;hd[1],r[2])
    mult prod (i:2..#hd-1) Repl2(r[i];hd[i],r[i+1])
    mult Sync(r[#hd];hd[#hd])
  }
",
            sizes: |n| vec![("hd", n)],
            drivers: &[("tl", Role::Send), ("hd", Role::Recv)],
            paired_sends: &[],
            exponential_fanout: false,
        },
        Family {
            name: "router",
            def: "RouterN",
            source: "
RouterN(tl;hd[]) =
  if (#hd == 1) { Sync(tl;hd[1]) }
  else {
    Router2(tl;hd[1],r[2])
    mult prod (i:2..#hd-1) Router2(r[i];hd[i],r[i+1])
    mult Sync(r[#hd];hd[#hd])
  }
",
            sizes: |n| vec![("hd", n)],
            drivers: &[("tl", Role::Send), ("hd", Role::Recv)],
            paired_sends: &[],
            exponential_fanout: false,
        },
        Family {
            name: "ordered",
            def: "ConnectorEx11N",
            source: "
ConnectorEx11N(tl[];hd[]) =
  if (#tl == 1) {
    Fifo1(tl[1];hd[1])
  } else {
    prod (i:1..#tl) X(tl[i];prev[i],next[i],hd[i])
    mult prod (i:1..#tl-1) Seq2(next[i];prev[i+1])
    mult Seq2(prev[1];next[#tl])
  }
X(tl;prev,next,hd) =
  Repl2(tl;prev,v) mult Fifo1(v;w) mult Repl2(w;next,hd)
",
            sizes: |n| vec![("tl", n), ("hd", n)],
            drivers: &[("tl", Role::Send), ("hd", Role::Recv)],
            paired_sends: &[],
            exponential_fanout: false,
        },
        Family {
            name: "sequencer",
            def: "SequencerN",
            source: "
SequencerN(t[];) =
  prod (i:1..#t) Repl2(y[i];u[i],z[i])
  mult prod (i:1..#t) SyncDrain(t[i],u[i];)
  mult prod (i:1..#t-1) Fifo1(z[i];y[i+1])
  mult Fifo1Full(z[#t];y[1])
",
            sizes: n_only_t(),
            drivers: &[("t", Role::Send)],
            paired_sends: &[],
            exponential_fanout: false,
        },
        Family {
            name: "alternator",
            def: "AlternatorN",
            source: "
AlternatorN(t[];hd) =
  prod (i:1..#t) Repl2(t[i];s[i],d[i])
  mult SequencerN(s[1..#t];)
  mult MergerN(d[1..#t];hd)
SequencerN(t[];) =
  prod (i:1..#t) Repl2(y[i];u[i],z[i])
  mult prod (i:1..#t) SyncDrain(t[i],u[i];)
  mult prod (i:1..#t-1) Fifo1(z[i];y[i+1])
  mult Fifo1Full(z[#t];y[1])
MergerN(tl[];hd) =
  if (#tl == 1) { Sync(tl[1];hd) }
  else {
    Merg2(tl[1],tl[2];m[2])
    mult prod (i:3..#tl) Merg2(m[i-1],tl[i];m[i])
    mult Sync(m[#tl];hd)
  }
",
            sizes: |n| vec![("t", n)],
            drivers: &[("t", Role::Send), ("hd", Role::Recv)],
            paired_sends: &[],
            exponential_fanout: false,
        },
        Family {
            name: "barrier",
            def: "BarrierN",
            source: "
BarrierN(t[];hd[]) =
  if (#t == 1) { Sync(t[1];hd[1]) }
  else {
    Repl2(t[1];dr[1],x[1])
    mult prod (i:2..#t-1) Repl3(t[i];dl[i],dr[i],x[i])
    mult Repl2(t[#t];dl[#t],x[#t])
    mult prod (i:1..#t-1) SyncDrain(dr[i],dl[i+1];)
    mult prod (i:1..#t) Sync(x[i];hd[i])
  }
",
            sizes: |n| vec![("t", n), ("hd", n)],
            drivers: &[("t", Role::Send), ("hd", Role::Recv)],
            paired_sends: &[],
            exponential_fanout: false,
        },
        Family {
            name: "lock",
            def: "LockN",
            source: "
LockN(a[],r[];) =
  Fifo1Full(z;y)
  mult Router(y;g[1..#a])
  mult prod (i:1..#a) SyncDrain(a[i],g[i];)
  mult Merger(r[1..#r];z)
",
            sizes: |n| vec![("a", n), ("r", n)],
            drivers: &[],
            paired_sends: &[("a", "r")],
            exponential_fanout: false,
        },
        Family {
            name: "semaphore2",
            def: "Semaphore2N",
            source: "
Semaphore2N(a[],r[];) =
  Fifo1Full(z1;y1) mult Fifo1Full(z2;y2)
  mult Merg2(y1,y2;y)
  mult Router(y;g[1..#a])
  mult prod (i:1..#a) SyncDrain(a[i],g[i];)
  mult Merger(r[1..#r];m)
  mult Router2(m;z1,z2)
",
            sizes: |n| vec![("a", n), ("r", n)],
            drivers: &[],
            paired_sends: &[("a", "r")],
            exponential_fanout: false,
        },
        Family {
            name: "variable",
            def: "VariableN",
            source: "
VariableN(w[];rd[]) =
  Merger(w[1..#w];wv) mult Var(wv;r) mult Router(r;rd[1..#rd])
",
            sizes: |n| vec![("w", n), ("rd", n)],
            drivers: &[("w", Role::Send), ("rd", Role::Recv)],
            paired_sends: &[],
            exponential_fanout: false,
        },
        Family {
            name: "lossy_bcast",
            def: "LossyBcastN",
            source: "
LossyBcastN(t;hd[]) =
  Replicator(t;c[1..#hd]) mult prod (i:1..#hd) Lossy(c[i];hd[i])
",
            sizes: |n| vec![("hd", n)],
            drivers: &[("t", Role::Send), ("hd", Role::Recv)],
            paired_sends: &[],
            exponential_fanout: true,
        },
        Family {
            name: "scatter_gather",
            def: "ScatterGatherN",
            source: "
ScatterGatherN(m,v[];w[],res) =
  Router(m;c[1..#w])
  mult prod (i:1..#w) Fifo1(c[i];w[i])
  mult prod (i:1..#v) Fifo1(v[i];d[i])
  mult Merger(d[1..#v];res)
",
            sizes: |n| vec![("v", n), ("w", n)],
            drivers: &[
                ("m", Role::Send),
                ("v", Role::Send),
                ("w", Role::Recv),
                ("res", Role::Recv),
            ],
            paired_sends: &[],
            exponential_fanout: true,
        },
        Family {
            name: "bcast_gather",
            def: "BcastGatherN",
            source: "
BcastGatherN(m,v[];w[],res) =
  Replicator(m;c[1..#w])
  mult prod (i:1..#w) Fifo1(c[i];w[i])
  mult prod (i:1..#v) Fifo1(v[i];d[i])
  mult Merger(d[1..#v];res)
",
            sizes: |n| vec![("v", n), ("w", n)],
            drivers: &[
                ("m", Role::Send),
                ("v", Role::Send),
                ("w", Role::Recv),
                ("res", Role::Recv),
            ],
            paired_sends: &[],
            exponential_fanout: true,
        },
        Family {
            name: "token_ring",
            def: "TokenRingN",
            source: "
TokenRingN(snd[];rcv[]) =
  prod (i:1..#snd-1) Fifo1(snd[i];rcv[i+1])
  mult Fifo1Full(snd[#snd];rcv[1])
",
            sizes: |n| vec![("snd", n), ("rcv", n)],
            drivers: &[("snd", Role::Send), ("rcv", Role::Recv)],
            paired_sends: &[],
            exponential_fanout: true,
        },
        Family {
            name: "pipeline",
            def: "PipelineN",
            source: "
PipelineN(p,sout[];sin[],q) =
  Fifo1(p;sin[1])
  mult prod (i:1..#sout-1) Fifo1(sout[i];sin[i+1])
  mult Fifo1(sout[#sout];q)
",
            sizes: |n| vec![("sout", n), ("sin", n)],
            drivers: &[
                ("p", Role::Send),
                ("sout", Role::Send),
                ("sin", Role::Recv),
                ("q", Role::Recv),
            ],
            paired_sends: &[],
            exponential_fanout: true,
        },
        Family {
            name: "load_balancer",
            def: "LoadBalancerN",
            source: "
LoadBalancerN(t;w[]) =
  Router(t;c[1..#w]) mult prod (i:1..#w) FifoN<2>(c[i];w[i])
",
            sizes: |n| vec![("w", n)],
            drivers: &[("t", Role::Send), ("w", Role::Recv)],
            paired_sends: &[],
            exponential_fanout: true,
        },
        Family {
            name: "exchanger",
            def: "ExchangerN",
            source: "
ExchangerN(s[];r[]) =
  prod (i:1..#s-1) Sync(s[i];r[i+1])
  mult Sync(s[#s];r[1])
",
            sizes: |n| vec![("s", n), ("r", n)],
            drivers: &[("s", Role::Send), ("r", Role::Recv)],
            paired_sends: &[],
            exponential_fanout: true,
        },
        Family {
            name: "channels",
            def: "ChannelsN",
            source: "
ChannelsN(t[];hd[]) =
  prod (i:1..#t) Sync(t[i];hd[i])
",
            sizes: |n| vec![("t", n), ("hd", n)],
            drivers: &[("t", Role::Send), ("hd", Role::Recv)],
            paired_sends: &[],
            exponential_fanout: true,
        },
    ]
}

fn n_only_t() -> fn(usize) -> Vec<(&'static str, usize)> {
    |n| vec![("t", n)]
}

/// The **disjoint-region** link workload, kept outside the paper's
/// eighteen: per channel a `Sync – Fifo1 – Sync` relay, so every channel
/// is two synchronous regions joined by one cut link and channels share
/// nothing. The fifo sits in its own iteration section — constituents of
/// one section compose into one medium automaton, so this placement is
/// what turns it into a link instead of region-internal state. Both of a
/// channel's regions border exactly one link, so this is the showcase for
/// the link protocol at its leanest: a value costs four engine-lock holds
/// (the send's poll and its `Offer`, the receive's poll and its `Rearm`)
/// and no operation counts as a kick (`EngineStats::kicks` stays 0).
pub fn relay_family() -> Family {
    Family {
        name: "relay",
        def: "RelayN",
        source: "
RelayN(t[];hd[]) =
  prod (i:1..#t) Sync(t[i];m[i])
  mult prod (i:1..#t) Fifo1(m[i];n[i])
  mult prod (i:1..#t) Sync(n[i];hd[i])
",
        sizes: |n| vec![("t", n), ("hd", n)],
        drivers: &[("t", Role::Send), ("hd", Role::Recv)],
        paired_sends: &[],
        exponential_fanout: true,
    }
}

/// The capacity of the cut fifo in [`burst_family`]: the per-link backlog
/// the emit side can hold beyond the producers' pending sends.
pub const BURST_LINK_CAPACITY: usize = 8;

/// The **deep-backlog** link workload: `n` producers fan into one
/// merger region, a `FifoN<8>` cut link buffers up to
/// [`BURST_LINK_CAPACITY`] values, and `n` consumers drain through one
/// router region. The per-cell backlog depth is `n` — up to `n` producer
/// sends pend at the merger while up to `n` consumer receives pend at
/// the router, on both sides of one deep link. This is the showcase for
/// link ports that serve themselves in the hold that completed them: a
/// hold on the merger region moves every deliverable value (each re-arm
/// of the tail immediately fires the next pending producer), and a hold
/// on the router region lands one value per pending receive (each
/// acknowledged front immediately offers the next) — while the link has
/// credit and a front on offer, a send or a receive costs its own two
/// holds and raises no event at all.
pub fn burst_family() -> Family {
    Family {
        name: "burst",
        def: "BurstN",
        source: "
BurstN(t[];hd[]) =
  Merger(t[1..#t];m[1])
  mult prod (i:1..1) FifoN<8>(m[i];w[i])
  mult Router(w[1];hd[1..#hd])
",
        sizes: |n| vec![("t", n), ("hd", n)],
        drivers: &[("t", Role::Send), ("hd", Role::Recv)],
        paired_sends: &[],
        exponential_fanout: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reo_runtime::{Connector, Mode};

    #[test]
    fn exactly_eighteen_families() {
        assert_eq!(families().len(), 18);
        let mut names: Vec<_> = families().iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 18, "names must be unique");
    }

    #[test]
    fn every_family_parses_and_compiles_parametrized() {
        for f in families() {
            let prog = f.program();
            Connector::builder(&prog, f.def)
                .mode(Mode::jit())
                .build()
                .unwrap_or_else(|e| panic!("{}: {e}", f.name));
        }
    }

    #[test]
    fn every_family_connects_at_small_n() {
        for f in families() {
            let prog = f.program();
            let conn = Connector::builder(&prog, f.def)
                .mode(Mode::jit())
                .build()
                .unwrap();
            for n in [1usize, 2, 3] {
                // Some constructions need n >= 2 (chains with explicit ends).
                if n == 1 && matches!(f.name, "exchanger" | "token_ring") {
                    continue;
                }
                let sizes = (f.sizes)(n);
                conn.session()
                    .replicate_all(&sizes)
                    .connect()
                    .unwrap_or_else(|e| panic!("{} at n={n}: {e}", f.name));
            }
        }
    }

    #[test]
    fn every_family_connects_monolithically_at_n2() {
        for f in families() {
            let prog = f.program();
            let conn = Connector::builder(&prog, f.def)
                .mode(Mode::existing())
                .build()
                .unwrap();
            let sizes = (f.sizes)(2);
            conn.session()
                .replicate_all(&sizes)
                .connect()
                .unwrap_or_else(|e| panic!("{}: {e}", f.name));
        }
    }

    #[test]
    fn burst_family_partitions_into_one_deep_link() {
        let f = burst_family();
        // The DSL literal must agree with the exported capacity constant.
        assert!(
            f.source.contains(&format!("FifoN<{BURST_LINK_CAPACITY}>")),
            "burst source out of sync with BURST_LINK_CAPACITY"
        );
        let prog = f.program();
        let conn = Connector::builder(&prog, f.def)
            .mode(Mode::partitioned())
            .build()
            .unwrap();
        let session = conn
            .session()
            .replicate_all(&(f.sizes)(6))
            .connect()
            .unwrap();
        let handle = session.handle();
        assert_eq!(handle.region_count(), 2, "merger region + consumer region");
        assert_eq!(handle.link_count(), 1, "one deep cut fifo");
    }

    #[test]
    fn relay_family_partitions_into_disjoint_linked_regions() {
        let f = relay_family();
        let prog = f.program();
        let conn = Connector::builder(&prog, f.def)
            .mode(Mode::partitioned())
            .build()
            .unwrap();
        let session = conn
            .session()
            .replicate_all(&(f.sizes)(3))
            .connect()
            .unwrap();
        let handle = session.handle();
        assert_eq!(handle.region_count(), 6, "2 regions per channel");
        assert_eq!(handle.link_count(), 3, "1 cut fifo per channel");
    }

    #[test]
    fn exponential_families_are_marked() {
        let marked: Vec<_> = families()
            .iter()
            .filter(|f| f.exponential_fanout)
            .map(|f| f.name)
            .collect();
        // Families of mutually independent constituents.
        for expected in ["channels", "exchanger", "pipeline", "token_ring"] {
            assert!(marked.contains(&expected), "{expected} must be marked");
        }
    }
}
