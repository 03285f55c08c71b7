//! The daemon's TOML-subset configuration: parser, schema and validation.
//!
//! `ldsd` reads one config file per daemon. The full grammar is a strict
//! subset of TOML — enough to express the deployment without pulling a
//! dependency into the build:
//!
//! * `[section]` headers: `daemon`, `cluster`, `heal`, `membership`;
//! * `key = value` pairs with `"quoted strings"`, unsigned integers and
//!   `true`/`false`;
//! * `#` comments (whole-line or trailing) and blank lines.
//!
//! Every parse or validation failure is an [`ConfigError`] whose `Display`
//! is a single readable line (with the line number for syntax errors), so
//! the daemon can print `ldsd: config error: …` and exit without a panic
//! or a half-started process.
//!
//! ```toml
//! [daemon]
//! listen        = "127.0.0.1:7000"   # mesh port (server <-> server)
//! client_listen = "127.0.0.1:7100"   # client RPC port
//! http_listen   = "127.0.0.1:7200"   # GET /metrics + /health
//!
//! [cluster]
//! f1 = 1        # L1 crash tolerance  (n1 = 2*f1 + k)
//! f2 = 1        # L2 crash tolerance  (n2 = 2*f2 + d)
//! k  = 2        # reconstruction threshold
//! d  = 3        # repair degree
//! backend = "mbr"
//!
//! [heal]
//! enabled = true
//! beat_interval_ms = 50
//!
//! [membership]                        # every server pid -> mesh address
//! 0 = "127.0.0.1:7000"
//! # ... one line per pid 0..n1+n2
//! ```

use lds_cluster::transport::TcpTopology;
use lds_cluster::HealConfig;
use lds_core::backend::BackendKind;
use lds_core::params::SystemParams;
use std::collections::BTreeMap;
use std::fmt;
use std::net::SocketAddr;
use std::time::Duration;

/// A configuration problem: bad syntax, a bad value, or an inconsistent
/// deployment. `Display` renders one readable line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line of the offending input, when the problem is tied to one.
    pub line: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl ConfigError {
    fn at(line: usize, message: impl Into<String>) -> ConfigError {
        ConfigError {
            line: Some(line),
            message: message.into(),
        }
    }

    fn invalid(message: impl Into<String>) -> ConfigError {
        ConfigError {
            line: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {line}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for ConfigError {}

/// One parsed scalar value.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Scalar {
    Str(String),
    Int(u64),
    Bool(bool),
}

impl Scalar {
    fn type_name(&self) -> &'static str {
        match self {
            Scalar::Str(_) => "string",
            Scalar::Int(_) => "integer",
            Scalar::Bool(_) => "boolean",
        }
    }
}

/// The `[daemon]` section: this process's three listen addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonSection {
    /// Mesh (server ↔ server) listen address; must appear in `[membership]`.
    pub listen: SocketAddr,
    /// Client RPC listen address.
    pub client_listen: SocketAddr,
    /// HTTP listen address (`GET /metrics`, `GET /health`).
    pub http_listen: SocketAddr,
}

/// The `[cluster]` section's settings besides `f1`, `f2`, `k` and `d`
/// (those become [`Config::params`]), shared verbatim by every daemon of a
/// deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSection {
    /// Erasure-code backend.
    pub backend: BackendKind,
    /// Pipeline depth of the daemon's server-side store clients.
    pub pipeline_depth: usize,
}

/// The `[heal]` section: the self-healing control plane's knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealSection {
    /// Whether this daemon runs the heartbeat monitor + repair supervisor
    /// for the servers it hosts.
    pub enabled: bool,
    /// [`HealConfig::beat_interval`] in milliseconds.
    pub beat_interval_ms: u64,
    /// [`HealConfig::suspicion_intervals`].
    pub suspicion_intervals: u32,
    /// [`HealConfig::backoff_base`] in milliseconds.
    pub backoff_base_ms: u64,
    /// [`HealConfig::backoff_max`] in milliseconds.
    pub backoff_max_ms: u64,
    /// [`HealConfig::max_concurrent_repairs`].
    pub max_concurrent_repairs: usize,
    /// [`HealConfig::jitter_seed`].
    pub jitter_seed: u64,
}

impl Default for HealSection {
    fn default() -> Self {
        let defaults = HealConfig::default();
        HealSection {
            enabled: false,
            beat_interval_ms: defaults.beat_interval.as_millis() as u64,
            suspicion_intervals: defaults.suspicion_intervals,
            backoff_base_ms: defaults.backoff_base.as_millis() as u64,
            backoff_max_ms: defaults.backoff_max.as_millis() as u64,
            max_concurrent_repairs: defaults.max_concurrent_repairs,
            jitter_seed: defaults.jitter_seed,
        }
    }
}

impl HealSection {
    /// The [`HealConfig`] these knobs describe (ignores `enabled`).
    pub fn to_heal_config(&self) -> HealConfig {
        HealConfig {
            beat_interval: Duration::from_millis(self.beat_interval_ms),
            suspicion_intervals: self.suspicion_intervals,
            backoff_base: Duration::from_millis(self.backoff_base_ms),
            backoff_max: Duration::from_millis(self.backoff_max_ms),
            max_concurrent_repairs: self.max_concurrent_repairs,
            jitter_seed: self.jitter_seed,
        }
    }
}

/// A fully parsed and validated daemon configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// This daemon's listen addresses.
    pub daemon: DaemonSection,
    /// Deployment-wide protocol parameters.
    pub cluster: ClusterSection,
    /// Self-healing knobs (defaults with `enabled = false` when the section
    /// is absent).
    pub heal: HealSection,
    /// `[cluster]`'s `f1`, `f2`, `k` and `d`, validated by
    /// [`SystemParams::for_failures`], which works out the layer sizes
    /// `n1 = 2·f1 + k` and `n2 = 2·f2 + d`.
    pub params: SystemParams,
    /// Where every process lives, from this daemon's seat: the daemons are
    /// `[membership]`'s addresses in first-appearance order, each server pid
    /// is owned by the daemon at its address, and `index` is the daemon
    /// whose mesh address is `[daemon] listen`.
    pub topology: TcpTopology,
}

impl Config {
    /// Parses and validates one config file's contents.
    pub fn parse(input: &str) -> Result<Config, ConfigError> {
        let raw = RawConfig::parse(input)?;
        raw.validate()
    }
}

/// Sections and key/value pairs as they appear in the file, before
/// cross-field validation.
#[derive(Debug, Default)]
struct RawConfig {
    /// `(section, key) -> (line, value)`, insertion checked for duplicates.
    entries: BTreeMap<(String, String), (usize, Scalar)>,
    /// Sections seen, for required/unknown-section checks.
    sections: Vec<String>,
}

impl RawConfig {
    fn parse(input: &str) -> Result<RawConfig, ConfigError> {
        let mut raw = RawConfig::default();
        let mut section: Option<String> = None;
        for (number, full_line) in input.lines().enumerate() {
            let number = number + 1;
            let line = strip_comment(full_line).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(ConfigError::at(number, "unterminated section header"));
                };
                let name = name.trim();
                if !matches!(name, "daemon" | "cluster" | "heal" | "membership") {
                    return Err(ConfigError::at(number, format!("unknown section [{name}]")));
                }
                if raw.sections.iter().any(|s| s == name) {
                    return Err(ConfigError::at(
                        number,
                        format!("duplicate section [{name}]"),
                    ));
                }
                raw.sections.push(name.to_string());
                section = Some(name.to_string());
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError::at(
                    number,
                    format!("expected `key = value`, got `{line}`"),
                ));
            };
            let key = key.trim();
            if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(ConfigError::at(number, format!("invalid key `{key}`")));
            }
            let Some(section) = section.clone() else {
                return Err(ConfigError::at(
                    number,
                    format!("key `{key}` before any [section]"),
                ));
            };
            let value = parse_scalar(value.trim(), number)?;
            if raw
                .entries
                .insert((section.clone(), key.to_string()), (number, value))
                .is_some()
            {
                return Err(ConfigError::at(
                    number,
                    format!("duplicate key `{key}` in [{section}]"),
                ));
            }
        }
        Ok(raw)
    }

    /// One typed value, or an error naming the expectation.
    fn take(&mut self, section: &str, key: &str) -> Option<(usize, Scalar)> {
        self.entries.remove(&(section.to_string(), key.to_string()))
    }

    fn required_str(&mut self, section: &str, key: &str) -> Result<(usize, String), ConfigError> {
        match self.take(section, key) {
            Some((line, Scalar::Str(s))) => Ok((line, s)),
            Some((line, other)) => Err(ConfigError::at(
                line,
                format!(
                    "[{section}] {key} must be a string, got {}",
                    other.type_name()
                ),
            )),
            None => Err(ConfigError::invalid(format!("missing [{section}] {key}"))),
        }
    }

    fn required_int(&mut self, section: &str, key: &str) -> Result<u64, ConfigError> {
        match self.take(section, key) {
            Some((_, Scalar::Int(v))) => Ok(v),
            Some((line, other)) => Err(ConfigError::at(
                line,
                format!(
                    "[{section}] {key} must be an integer, got {}",
                    other.type_name()
                ),
            )),
            None => Err(ConfigError::invalid(format!("missing [{section}] {key}"))),
        }
    }

    fn optional_int(&mut self, section: &str, key: &str, default: u64) -> Result<u64, ConfigError> {
        match self.take(section, key) {
            Some((_, Scalar::Int(v))) => Ok(v),
            Some((line, other)) => Err(ConfigError::at(
                line,
                format!(
                    "[{section}] {key} must be an integer, got {}",
                    other.type_name()
                ),
            )),
            None => Ok(default),
        }
    }

    fn optional_bool(
        &mut self,
        section: &str,
        key: &str,
        default: bool,
    ) -> Result<bool, ConfigError> {
        match self.take(section, key) {
            Some((_, Scalar::Bool(v))) => Ok(v),
            Some((line, other)) => Err(ConfigError::at(
                line,
                format!(
                    "[{section}] {key} must be a boolean, got {}",
                    other.type_name()
                ),
            )),
            None => Ok(default),
        }
    }

    fn optional_str(
        &mut self,
        section: &str,
        key: &str,
        default: &str,
    ) -> Result<(usize, String), ConfigError> {
        match self.take(section, key) {
            Some((line, Scalar::Str(s))) => Ok((line, s)),
            Some((line, other)) => Err(ConfigError::at(
                line,
                format!(
                    "[{section}] {key} must be a string, got {}",
                    other.type_name()
                ),
            )),
            None => Ok((0, default.to_string())),
        }
    }

    fn validate(mut self) -> Result<Config, ConfigError> {
        for required in ["daemon", "cluster", "membership"] {
            if !self.sections.iter().any(|s| s == required) {
                return Err(ConfigError::invalid(format!(
                    "missing section [{required}]"
                )));
            }
        }

        let daemon = DaemonSection {
            listen: parse_addr(self.required_str("daemon", "listen")?)?,
            client_listen: parse_addr(self.required_str("daemon", "client_listen")?)?,
            http_listen: parse_addr(self.required_str("daemon", "http_listen")?)?,
        };

        let (backend_line, backend_name) = self.optional_str("cluster", "backend", "mbr")?;
        let backend = match backend_name.as_str() {
            "mbr" => BackendKind::Mbr,
            "msr" => BackendKind::ProductMatrixMsr,
            "msr-point" => BackendKind::MsrPoint,
            "replication" => BackendKind::Replication,
            other => {
                return Err(ConfigError::at(
                    backend_line.max(1),
                    format!(
                        "unknown backend `{other}` (expected mbr, msr, msr-point or replication)"
                    ),
                ))
            }
        };
        let cluster = ClusterSection {
            backend,
            pipeline_depth: self.optional_int("cluster", "pipeline_depth", 16)? as usize,
        };
        let [f1, f2, k, d] =
            ["f1", "f2", "k", "d"].map(|key| self.required_int("cluster", key).map(|v| v as usize));
        let params = SystemParams::for_failures(f1?, f2?, k?, d?)
            .map_err(|e| ConfigError::invalid(format!("[cluster] {e}")))?;
        if cluster.pipeline_depth == 0 {
            return Err(ConfigError::invalid(
                "[cluster] pipeline_depth must be at least 1",
            ));
        }

        let defaults = HealSection::default();
        let heal = HealSection {
            enabled: self.optional_bool("heal", "enabled", defaults.enabled)?,
            beat_interval_ms: self.optional_int(
                "heal",
                "beat_interval_ms",
                defaults.beat_interval_ms,
            )?,
            suspicion_intervals: u32::try_from(self.optional_int(
                "heal",
                "suspicion_intervals",
                u64::from(defaults.suspicion_intervals),
            )?)
            .map_err(|_| {
                ConfigError::invalid(format!(
                    "[heal] suspicion_intervals must be at most {}",
                    u32::MAX
                ))
            })?,
            backoff_base_ms: self.optional_int(
                "heal",
                "backoff_base_ms",
                defaults.backoff_base_ms,
            )?,
            backoff_max_ms: self.optional_int("heal", "backoff_max_ms", defaults.backoff_max_ms)?,
            max_concurrent_repairs: self.optional_int(
                "heal",
                "max_concurrent_repairs",
                defaults.max_concurrent_repairs as u64,
            )? as usize,
            jitter_seed: self.optional_int("heal", "jitter_seed", defaults.jitter_seed)?,
        };
        if heal.enabled {
            if heal.beat_interval_ms == 0 {
                return Err(ConfigError::invalid(
                    "[heal] beat_interval_ms must be non-zero",
                ));
            }
            if heal.suspicion_intervals == 0 {
                return Err(ConfigError::invalid(
                    "[heal] suspicion_intervals must be at least 1",
                ));
            }
            if heal.backoff_base_ms == 0 {
                return Err(ConfigError::invalid(
                    "[heal] backoff_base_ms must be non-zero",
                ));
            }
            if heal.backoff_max_ms < heal.backoff_base_ms {
                return Err(ConfigError::invalid(
                    "[heal] backoff_max_ms must be at least backoff_base_ms",
                ));
            }
            if heal.max_concurrent_repairs == 0 {
                return Err(ConfigError::invalid(
                    "[heal] max_concurrent_repairs must be at least 1",
                ));
            }
        }

        let servers = params.code_length();
        let mut membership = vec![None; servers];
        let member_keys: Vec<(String, String)> = self
            .entries
            .keys()
            .filter(|(section, _)| section == "membership")
            .cloned()
            .collect();
        for (section, key) in member_keys {
            let (line, value) = self.entries.remove(&(section, key.clone())).unwrap();
            let Ok(pid) = key.parse::<usize>() else {
                return Err(ConfigError::at(
                    line,
                    format!("[membership] keys must be server pids, got `{key}`"),
                ));
            };
            if pid >= servers {
                return Err(ConfigError::at(
                    line,
                    format!("[membership] pid {pid} out of range (servers are 0..{servers})"),
                ));
            }
            let Scalar::Str(addr) = value else {
                return Err(ConfigError::at(
                    line,
                    format!("[membership] {pid} must be a string address"),
                ));
            };
            membership[pid] = Some(parse_addr((line, addr))?);
        }
        let membership: Vec<SocketAddr> = membership
            .into_iter()
            .enumerate()
            .map(|(pid, addr)| {
                addr.ok_or_else(|| {
                    ConfigError::invalid(format!(
                        "[membership] missing pid {pid} (every server pid 0..{servers} needs an address)"
                    ))
                })
            })
            .collect::<Result<_, _>>()?;

        // Reject anything left over: unknown keys are config bugs, not noise.
        if let Some(((section, key), (line, _))) = self.entries.iter().next() {
            return Err(ConfigError::at(
                *line,
                format!("unknown key `{key}` in [{section}]"),
            ));
        }

        // Daemon list: membership addresses in first-appearance order; each
        // server is owned by the daemon at its address.
        let mut daemon_addrs: Vec<SocketAddr> = Vec::new();
        let server_owner = membership
            .iter()
            .map(|addr| {
                daemon_addrs
                    .iter()
                    .position(|a| a == addr)
                    .unwrap_or_else(|| {
                        daemon_addrs.push(*addr);
                        daemon_addrs.len() - 1
                    })
            })
            .collect();
        let Some(index) = daemon_addrs.iter().position(|&a| a == daemon.listen) else {
            return Err(ConfigError::invalid(format!(
                "[daemon] listen {} does not appear in [membership]; this daemon would host nothing",
                daemon.listen
            )));
        };

        let mut listens = [daemon.listen, daemon.client_listen, daemon.http_listen];
        listens.sort();
        if listens.windows(2).any(|w| w[0] == w[1]) {
            return Err(ConfigError::invalid(
                "[daemon] listen, client_listen and http_listen must be three distinct addresses",
            ));
        }

        Ok(Config {
            daemon,
            cluster,
            heal,
            topology: TcpTopology {
                n1: params.n1(),
                n2: params.n2(),
                index,
                peers: daemon_addrs,
                server_owner,
            },
            params,
        })
    }
}

/// Strips a `#` comment, respecting `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses one scalar: quoted string, unsigned integer or boolean.
fn parse_scalar(text: &str, line: usize) -> Result<Scalar, ConfigError> {
    if let Some(rest) = text.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return Err(ConfigError::at(line, "unterminated string"));
        };
        if inner.contains('"') {
            return Err(ConfigError::at(line, "embedded quotes are not supported"));
        }
        return Ok(Scalar::Str(inner.to_string()));
    }
    match text {
        "true" => return Ok(Scalar::Bool(true)),
        "false" => return Ok(Scalar::Bool(false)),
        "" => return Err(ConfigError::at(line, "missing value")),
        _ => {}
    }
    let digits: String = text.chars().filter(|&c| c != '_').collect();
    match digits.parse::<u64>() {
        Ok(v) => Ok(Scalar::Int(v)),
        Err(_) => Err(ConfigError::at(
            line,
            format!("expected a string, integer or boolean, got `{text}`"),
        )),
    }
}

/// Parses a socket address out of a `(line, text)` pair.
fn parse_addr((line, text): (usize, String)) -> Result<SocketAddr, ConfigError> {
    text.parse::<SocketAddr>().map_err(|_| {
        let error = format!("`{text}` is not a socket address (expected ip:port)");
        if line == 0 {
            ConfigError::invalid(error)
        } else {
            ConfigError::at(line, error)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A complete, valid 2-daemon config from daemon 0's seat.
    fn sample() -> String {
        let mut text = String::from(
            "# deployment: 2 daemons\n\
             [daemon]\n\
             listen = \"127.0.0.1:7000\"   # mesh\n\
             client_listen = \"127.0.0.1:7100\"\n\
             http_listen = \"127.0.0.1:7200\"\n\
             \n\
             [cluster]\n\
             f1 = 1\n\
             f2 = 1\n\
             k = 2\n\
             d = 3\n\
             backend = \"mbr\"\n\
             \n\
             [heal]\n\
             enabled = true\n\
             beat_interval_ms = 25\n\
             \n\
             [membership]\n",
        );
        // 4 L1 + 5 L2 servers, striped over two daemons.
        for pid in 0..9 {
            let port = 7000 + (pid % 2);
            text.push_str(&format!("{pid} = \"127.0.0.1:{port}\"\n"));
        }
        text
    }

    #[test]
    fn sample_parses_and_resolves() {
        let config = Config::parse(&sample()).unwrap();
        assert_eq!(
            config.params,
            SystemParams::for_failures(1, 1, 2, 3).unwrap()
        );
        let topo = &config.topology;
        assert_eq!((topo.n1, topo.n2), (4, 5));
        assert_eq!(topo.index, 0);
        assert_eq!(topo.daemons(), 2);
        assert!(config.heal.enabled);
        assert_eq!(config.heal.beat_interval_ms, 25);
        // Defaults survive a partial [heal] section.
        assert_eq!(
            config.heal.suspicion_intervals,
            HealConfig::default().suspicion_intervals
        );
        assert_eq!(topo.server_owner, vec![0, 1, 0, 1, 0, 1, 0, 1, 0]);
        assert_eq!((topo.client_base(), topo.client_step()), (1, 2));
    }

    #[test]
    fn errors_are_single_readable_lines() {
        let cases: Vec<(String, &str)> = vec![
            ("[daemon".into(), "unterminated section"),
            ("[mystery]\n".into(), "unknown section"),
            ("stray = 1\n".into(), "before any [section]"),
            ("[daemon]\nnot a pair\n".into(), "expected `key = value`"),
            (
                "[daemon]\nlisten = \"unclosed\n".into(),
                "unterminated string",
            ),
            ("[daemon]\nlisten = maybe\n".into(), "expected a string"),
            (sample().replace("k = 2", "k = 4"), "k <= d"),
            // k = 2 > d = 1, but n2 = 2*f2 + d = 3 breaks f2 < n2/3 first.
            (sample().replace("d = 3", "d = 1"), "need f2 < n2/3"),
            (
                sample().replace(
                    "listen = \"127.0.0.1:7000\"   # mesh",
                    "listen = \"127.0.0.1:9\"",
                ),
                "does not appear in [membership]",
            ),
            (
                sample().replace("8 = \"127.0.0.1:7000\"\n", ""),
                "missing pid 8",
            ),
            (
                sample().replace(
                    "[heal]\nenabled = true",
                    "[heal]\nenabled = true\nbeat_interval_ms = 0",
                ),
                "beat_interval_ms",
            ),
            (sample() + "9 = \"127.0.0.1:7001\"\n", "out of range"),
            (sample() + "\n[cluster]\n", "duplicate section"),
            (
                sample().replace("backend = \"mbr\"", "backend = \"mbr\"\nbogus_knob = 3"),
                "unknown key",
            ),
            (sample().replace("f1 = 1\n", ""), "missing [cluster] f1"),
            (
                sample().replace("beat_interval_ms = 25", "suspicion_intervals = 4294967297"),
                "suspicion_intervals must be at most 4294967295",
            ),
        ];
        for (input, needle) in cases {
            let error = Config::parse(&input).expect_err(needle);
            let rendered = error.to_string();
            assert!(
                rendered.contains(needle),
                "expected `{needle}` in `{rendered}`"
            );
            assert!(!rendered.contains('\n'), "one line, got `{rendered}`");
        }
    }

    /// A tolerance whose layer size does not fit in a `usize` is an error,
    /// not a wrapped size or an arithmetic panic.
    #[test]
    fn layer_sizes_that_overflow_are_config_errors() {
        for (from, to) in [
            ("f1 = 1", "f1 = 9223372036854775808"),
            ("f2 = 1", "f2 = 9223372036854775808"),
            ("d = 3", "d = 18446744073709551615"),
        ] {
            let error = Config::parse(&sample().replace(from, to)).expect_err(to);
            assert!(error.to_string().contains("overflows"), "{to}: {error}");
        }
    }

    #[test]
    fn second_daemon_resolves_its_own_seat() {
        let text = sample()
            .replace(
                "listen = \"127.0.0.1:7000\"   # mesh",
                "listen = \"127.0.0.1:7001\"",
            )
            .replace(
                "client_listen = \"127.0.0.1:7100\"",
                "client_listen = \"127.0.0.1:7101\"",
            )
            .replace(
                "http_listen = \"127.0.0.1:7200\"",
                "http_listen = \"127.0.0.1:7201\"",
            );
        let config = Config::parse(&text).unwrap();
        let topo = &config.topology;
        assert_eq!(topo.index, 1);
        assert_eq!(topo.server_owner, vec![0, 1, 0, 1, 0, 1, 0, 1, 0]);
        assert_eq!((topo.client_base(), topo.client_step()), (2, 2));
    }

    #[test]
    fn heal_section_maps_to_heal_config() {
        let text = sample().replace(
            "[heal]\nenabled = true\nbeat_interval_ms = 25",
            "[heal]\nenabled = true\nbeat_interval_ms = 10\nsuspicion_intervals = 7\n\
             backoff_base_ms = 40\nbackoff_max_ms = 900\nmax_concurrent_repairs = 3\n\
             jitter_seed = 99",
        );
        let config = Config::parse(&text).unwrap();
        let heal = config.heal.to_heal_config();
        assert_eq!(heal.beat_interval, Duration::from_millis(10));
        assert_eq!(heal.suspicion_intervals, 7);
        assert_eq!(heal.backoff_base, Duration::from_millis(40));
        assert_eq!(heal.backoff_max, Duration::from_millis(900));
        assert_eq!(heal.max_concurrent_repairs, 3);
        assert_eq!(heal.jitter_seed, 99);
    }
}
