//! The "program file" of §4.7 — the MPICH-V2 analog of MPICH-P4's
//! `P4PGFILE`.
//!
//! "It describes the run, with for each machine 1) its role inside the
//! system (Computing Node, Event Logger, Checkpoint Server, Checkpoint
//! Scheduler) and 2) the list of options for that role."
//!
//! Format (one machine per line, `#` comments):
//!
//! ```text
//! # role   options
//! cn node01
//! cn node02
//! cn node03
//! cn node04
//! el logger01
//! cs store01
//! sc store01 policy=rr interval_ms=5
//! ```
//!
//! Hostnames are decorative in the in-process deployment (DESIGN.md
//! §2): counts and options are what matter. The socket backend
//! (`mpirun --backend socket`) additionally honours `host:port` entries
//! as *first-launch* bind addresses ([`ProgramFile::bind_map`]);
//! reincarnations always rebind a fresh ephemeral port — announced via
//! their `Hello` — so revival never fights `TIME_WAIT` on the old one.

use crate::deploy::Topology;
use crate::services::SchedulerConfig;
use mvr_ckpt::Policy;
use mvr_core::{ElAddr, NodeId, Rank};
use std::time::Duration;

/// A parsed deployment description.
#[derive(Clone, Debug, PartialEq)]
pub struct ProgramFile {
    /// Computing-node hostnames, in rank order.
    pub computing: Vec<String>,
    /// Event-logger hostnames.
    pub event_loggers: Vec<String>,
    /// Checkpoint-server hostnames.
    pub checkpoint_servers: Vec<String>,
    /// Checkpoint-scheduler host and options, if present.
    pub scheduler: Option<(String, SchedulerConfig)>,
}

impl ProgramFile {
    /// World size.
    pub fn world(&self) -> u32 {
        self.computing.len() as u32
    }

    /// First-launch bind addresses for the socket backend: every
    /// machine entry written as `host:port` maps to its deployment
    /// node. Entries without a port (plain hostnames) bind ephemeral.
    /// With replicated event loggers, an `el` line's declared port goes
    /// to replica 0 of its shard; other replicas bind ephemeral.
    pub fn bind_map(&self, topology: &Topology) -> Vec<(NodeId, String)> {
        let mut map = Vec::new();
        for (i, entry) in self.computing.iter().enumerate() {
            if host_port(entry).is_some() {
                map.push((NodeId::Computing(Rank(i as u32)), entry.clone()));
            }
        }
        for (shard, entry) in (0..).zip(&self.event_loggers) {
            if host_port(entry).is_some() {
                let first = ElAddr { shard, replica: 0 };
                map.push((topology.el_node(first), entry.clone()));
            }
        }
        if let Some(entry) = self.checkpoint_servers.first() {
            if host_port(entry).is_some() {
                map.push((NodeId::CheckpointServer(0), entry.clone()));
            }
        }
        map
    }
}

/// Split a machine entry into hostname and declared port, when the
/// entry carries one (`"node01:4711"` → `("node01", 4711)`).
pub fn host_port(entry: &str) -> Option<(&str, u16)> {
    let (host, port) = entry.rsplit_once(':')?;
    let port: u16 = port.parse().ok()?;
    if host.is_empty() {
        None
    } else {
        Some((host, port))
    }
}

/// Parse errors with line information.
#[derive(Debug, PartialEq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "program file line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parse a program file.
pub fn parse(text: &str) -> Result<ProgramFile, ParseError> {
    let mut pf = ProgramFile {
        computing: Vec::new(),
        event_loggers: Vec::new(),
        checkpoint_servers: Vec::new(),
        scheduler: None,
    };
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let role = parts.next().expect("nonempty line");
        let host = parts
            .next()
            .ok_or_else(|| err(lineno, format!("role '{role}' needs a hostname")))?
            .to_string();
        let opts: Vec<&str> = parts.collect();
        match role {
            "cn" => {
                if !opts.is_empty() {
                    return Err(err(lineno, "computing nodes take no options"));
                }
                pf.computing.push(host);
            }
            "el" => pf.event_loggers.push(host),
            "cs" => pf.checkpoint_servers.push(host),
            "sc" => {
                if pf.scheduler.is_some() {
                    return Err(err(lineno, "duplicate checkpoint scheduler"));
                }
                let mut cfg = SchedulerConfig::default();
                for o in opts {
                    let (k, v) = o
                        .split_once('=')
                        .ok_or_else(|| err(lineno, format!("bad option '{o}' (want k=v)")))?;
                    match k {
                        "policy" => {
                            cfg.policy = match v {
                                "rr" | "roundrobin" | "round-robin" => Policy::RoundRobin,
                                "adaptive" => Policy::Adaptive,
                                "random" => Policy::Random,
                                other => {
                                    return Err(err(lineno, format!("unknown policy '{other}'")))
                                }
                            };
                        }
                        "interval_ms" => {
                            let ms: u64 = v
                                .parse()
                                .map_err(|_| err(lineno, format!("bad interval '{v}'")))?;
                            cfg.interval = Duration::from_millis(ms);
                        }
                        "seed" => {
                            cfg.seed = v
                                .parse()
                                .map_err(|_| err(lineno, format!("bad seed '{v}'")))?;
                        }
                        other => return Err(err(lineno, format!("unknown option '{other}'"))),
                    }
                }
                pf.scheduler = Some((host, cfg));
            }
            other => return Err(err(lineno, format!("unknown role '{other}'"))),
        }
    }
    if pf.computing.is_empty() {
        return Err(err(0, "no computing nodes declared"));
    }
    Ok(pf)
}

/// Build a default program file for `world` ranks — what `mpirun -np N`
/// does when no file is given ("the user just runs a parallel program
/// using the standard mpirun command").
pub fn default_for(world: u32) -> ProgramFile {
    ProgramFile {
        computing: (0..world).map(|r| format!("node{r:02}")).collect(),
        event_loggers: vec!["reliable0".into()],
        checkpoint_servers: vec!["reliable1".into()],
        scheduler: Some(("reliable0".into(), SchedulerConfig::default())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_deployment() {
        let text = "
# four computing nodes
cn node01
cn node02
cn node03  # trailing comment
cn node04

el logger01
cs store01
sc store01 policy=adaptive interval_ms=7 seed=3
";
        let pf = parse(text).unwrap();
        assert_eq!(pf.world(), 4);
        assert_eq!(pf.computing[2], "node03");
        assert_eq!(pf.event_loggers, vec!["logger01"]);
        assert_eq!(pf.checkpoint_servers, vec!["store01"]);
        let (host, cfg) = pf.scheduler.unwrap();
        assert_eq!(host, "store01");
        assert_eq!(cfg.policy, Policy::Adaptive);
        assert_eq!(cfg.interval, Duration::from_millis(7));
        assert_eq!(cfg.seed, 3);
    }

    #[test]
    fn multiple_event_loggers() {
        let pf = parse("cn a\ncn b\nel e1\nel e2\n").unwrap();
        assert_eq!(pf.event_loggers.len(), 2);
    }

    #[test]
    fn rejects_unknown_role() {
        let e = parse("cn a\nxx b\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown role"));
    }

    #[test]
    fn rejects_bad_policy_and_options() {
        assert!(parse("cn a\nsc h policy=magic\n")
            .unwrap_err()
            .message
            .contains("unknown policy"));
        assert!(parse("cn a\nsc h interval_ms=abc\n")
            .unwrap_err()
            .message
            .contains("bad interval"));
        assert!(parse("cn a\nsc h nonsense=1\n")
            .unwrap_err()
            .message
            .contains("unknown option"));
        assert!(parse("cn a\nsc h oops\n")
            .unwrap_err()
            .message
            .contains("bad option"));
    }

    #[test]
    fn rejects_missing_host_and_empty_world() {
        assert!(parse("cn\n")
            .unwrap_err()
            .message
            .contains("needs a hostname"));
        assert!(parse("el e1\n")
            .unwrap_err()
            .message
            .contains("no computing nodes"));
    }

    #[test]
    fn rejects_duplicate_scheduler() {
        let e = parse("cn a\nsc h\nsc h2\n").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn cn_options_rejected() {
        assert!(parse("cn a opt=1\n")
            .unwrap_err()
            .message
            .contains("no options"));
    }

    #[test]
    fn host_port_entries_feed_the_bind_map() {
        let pf =
            parse("cn node01:4000\ncn node02\nel logger01:5000\nel logger02\ncs store01:6000\n")
                .unwrap();
        assert_eq!(host_port("node01:4000"), Some(("node01", 4000)));
        assert_eq!(host_port("node02"), None);
        assert_eq!(host_port(":4000"), None);
        assert_eq!(host_port("node01:notaport"), None);

        let topology = Topology::new(pf.world(), 2, 2).expect("valid");
        let mut pf = pf;
        pf.event_loggers.swap(0, 1);
        let map = pf.bind_map(&topology);
        assert_eq!(
            map,
            vec![
                (NodeId::Computing(Rank(0)), "node01:4000".to_string()),
                // Shard 1's declared port goes to its replica 0.
                (NodeId::EventLogger(2), "logger01:5000".to_string()),
                (NodeId::CheckpointServer(0), "store01:6000".to_string()),
            ]
        );
    }

    #[test]
    fn default_is_well_formed() {
        let pf = default_for(8);
        assert_eq!(pf.world(), 8);
        assert_eq!(pf.event_loggers.len(), 1);
        assert!(pf.scheduler.is_some());
    }
}
