//! A per-thread-role census of this process: who burned the CPU and who
//! went to sleep how often between two points in time.
//!
//! Reads Linux procfs (`/proc/self/task/<tid>/{comm,stat,status}`); on a
//! host without it [`Census::take`] is `None`. Threads are grouped by
//! **role**, their name with the numeric suffix stripped (`lds-worker-0` and
//! `lds-worker-1` are both `lds-worker`). The kernel keeps 15 bytes of a
//! name, so roles are compared as the kernel reports them.

use std::collections::BTreeMap;

/// Counters of one thread at one moment.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ThreadSample {
    role: String,
    /// `utime`, `stime` (clock ticks), voluntary and involuntary switches.
    counters: [u64; 4],
}

/// Every thread of the process at one moment.
#[derive(Debug, Clone)]
pub struct Census(BTreeMap<u64, ThreadSample>);

/// What the threads of one role did between two censuses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoleUsage {
    /// Thread name without its numeric suffix.
    pub role: String,
    /// Threads of the role alive at the later census.
    pub threads: usize,
    /// User-mode clock ticks (`sysconf(_SC_CLK_TCK)` per second: 100).
    pub user_ticks: u64,
    /// Kernel-mode clock ticks.
    pub system_ticks: u64,
    /// Times a thread gave up the CPU to wait for something.
    pub voluntary_switches: u64,
    /// Times the scheduler took the CPU away.
    pub involuntary_switches: u64,
}

/// A thread name without the `-<digits>` (or bare digits) it ends in.
pub fn role_of(comm: &str) -> &str {
    let role = comm
        .trim_end_matches(|c: char| c.is_ascii_digit())
        .trim_end_matches('-');
    if role.is_empty() {
        comm
    } else {
        role
    }
}

/// Fields 14 and 15 of a `stat` line. The name in field 2 may hold spaces
/// and parentheses, so fields are counted from the last `)`.
fn cpu_ticks(stat: &str) -> Option<[u64; 2]> {
    let after_name = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_name.split_ascii_whitespace().skip(11);
    Some([fields.next()?.parse().ok()?, fields.next()?.parse().ok()?])
}

/// The value of `key:` in a `status` file.
fn status_field(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|line| line.starts_with(key))?;
    line[key.len()..]
        .trim_start_matches(':')
        .trim()
        .parse()
        .ok()
}

fn sample(comm: &str, stat: &str, status: &str) -> Option<ThreadSample> {
    let [user, system] = cpu_ticks(stat)?;
    Some(ThreadSample {
        role: role_of(comm.trim_end()).to_string(),
        counters: [
            user,
            system,
            status_field(status, "voluntary_ctxt_switches")?,
            status_field(status, "nonvoluntary_ctxt_switches")?,
        ],
    })
}

impl Census {
    /// Samples every thread of this process. `None` where procfs is not
    /// there to read; a thread that exits while it is being read is skipped.
    pub fn take() -> Option<Census> {
        let mut threads = BTreeMap::new();
        for entry in std::fs::read_dir("/proc/self/task").ok()? {
            let dir = entry.ok()?.path();
            let Some(tid) = dir.file_name().and_then(|name| name.to_str()?.parse().ok()) else {
                continue;
            };
            let read = |file: &str| std::fs::read_to_string(dir.join(file)).ok();
            let (Some(comm), Some(stat), Some(status)) =
                (read("comm"), read("stat"), read("status"))
            else {
                continue;
            };
            threads.insert(tid, sample(&comm, &stat, &status)?);
        }
        Some(Census(threads))
    }

    /// What each role did since `earlier`, busiest role first. A thread
    /// that started in between counts from zero; one that ended in between
    /// takes what it did with it.
    pub fn since(&self, earlier: &Census) -> Vec<RoleUsage> {
        let mut roles: BTreeMap<&str, RoleUsage> = BTreeMap::new();
        for (tid, now) in &self.0 {
            let then = earlier.0.get(tid).filter(|then| then.role == now.role);
            let moved =
                |i: usize| now.counters[i].saturating_sub(then.map_or(0, |then| then.counters[i]));
            let usage = roles.entry(&now.role).or_insert_with(|| RoleUsage {
                role: now.role.clone(),
                threads: 0,
                user_ticks: 0,
                system_ticks: 0,
                voluntary_switches: 0,
                involuntary_switches: 0,
            });
            usage.threads += 1;
            usage.user_ticks += moved(0);
            usage.system_ticks += moved(1);
            usage.voluntary_switches += moved(2);
            usage.involuntary_switches += moved(3);
        }
        let mut roles: Vec<RoleUsage> = roles.into_values().collect();
        roles.sort_by_key(|r| std::cmp::Reverse(r.user_ticks + r.system_ticks));
        roles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_strip_the_numeric_suffix_only() {
        assert_eq!(role_of("lds-worker-12"), "lds-worker");
        assert_eq!(role_of("lds-tcp-mesh"), "lds-tcp-mesh");
        // A name the kernel's 15 bytes cut right after its dash.
        assert_eq!(role_of("lds-worker-"), "lds-worker");
        // 15 bytes of `lds-heal-supervisor` are what the kernel keeps.
        assert_eq!(role_of("lds-heal-superv"), "lds-heal-superv");
        assert_eq!(role_of("ldsd-rpc-conn"), "ldsd-rpc-conn");
        assert_eq!(role_of("exp_net"), "exp_net");
        assert_eq!(role_of("tokio7"), "tokio");
        assert_eq!(role_of("42"), "42");
    }

    #[test]
    fn a_thread_line_parses_whatever_its_name_holds() {
        let stat = "71 (a) b) c) S 1 71 71 0 -1 4194304 9 0 0 0 33 44 0 0 20 0 3 0 5 6 7";
        let status =
            "Name:\ta) b) c\nvoluntary_ctxt_switches:\t5\nnonvoluntary_ctxt_switches:\t6\n";
        let sample = sample("worker-3\n", stat, status).unwrap();
        assert_eq!(sample.role, "worker");
        assert_eq!(sample.counters, [33, 44, 5, 6]);
        assert!(cpu_ticks("71 (short) S 1").is_none());
    }

    /// On Linux the census sees this test's own threads, and a thread that
    /// sleeps between two of them shows up under its role with its switch.
    #[test]
    fn a_sleeping_thread_is_seen_under_its_role() {
        let Some(before) = Census::take() else {
            return; // no procfs here
        };
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let napper = std::thread::Builder::new()
            .name("census-nap-7".into())
            .spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                ready_tx.send(()).unwrap();
                let _ = rx.recv();
            })
            .unwrap();
        ready_rx.recv().unwrap();
        let usage = Census::take().unwrap().since(&before);
        let nap = usage
            .iter()
            .find(|r| r.role == "census-nap")
            .expect("the new thread is in the census");
        assert_eq!(nap.threads, 1);
        assert!(nap.voluntary_switches >= 1, "{nap:?}");
        drop(tx);
        napper.join().unwrap();
    }
}
