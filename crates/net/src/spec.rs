//! Cluster hardware specifications and calibration presets.
//!
//! The shapes in the paper come from a concrete testbed — the HKU Gideon 300
//! cluster (Pentium 4 2.0 GHz, 512 MB RAM, Fast Ethernet, Linux 2.4, local
//! IDE disks, 4 NFS checkpoint servers for the MPICH-VCL comparison). The
//! [`ClusterSpec::gideon300`] preset encodes plausible sustained rates for
//! that hardware; absolute seconds are not expected to match the paper, the
//! *relative* behaviour is.

use gcr_sim::SimDuration;

/// Network parameters for a switched, full-duplex cluster interconnect.
#[derive(Debug, Clone)]
pub struct NetSpec {
    /// One-way wire + switch latency.
    pub latency: SimDuration,
    /// Per-message software overhead (MPI stack, TCP), paid once per message
    /// on top of the wire latency.
    pub per_msg_overhead: SimDuration,
    /// Link bandwidth in bytes/second (each direction of each node link).
    pub bandwidth_bps: f64,
    /// Effective memory-copy bandwidth for rank-to-self messages.
    pub loopback_bps: f64,
}

/// Storage parameters.
#[derive(Debug, Clone)]
pub struct StorageSpec {
    /// Sustained local-disk write/read bandwidth (bytes/s).
    pub local_disk_bps: f64,
    /// Fixed per-operation overhead on the local disk (seek + fs).
    pub local_seek: SimDuration,
    /// Number of remote checkpoint servers (0 = remote storage unavailable).
    pub remote_servers: usize,
    /// Sustained disk bandwidth of each remote server (bytes/s).
    pub remote_disk_bps: f64,
    /// Fixed per-operation overhead on a remote server.
    pub remote_seek: SimDuration,
}

/// Random per-process delays observed when entering checkpoint coordination
/// (scheduling noise, daemons, page-cache flushes). The paper's NORM spikes
/// (Figs 1, 5, 6) are max-of-n draws from this distribution.
#[derive(Debug, Clone)]
pub struct StragglerSpec {
    /// Probability that a given process is delayed at a given coordination
    /// point.
    pub prob: f64,
    /// Mean of the exponential delay when it happens.
    pub mean: SimDuration,
}

impl StragglerSpec {
    /// A model that never delays anyone (for deterministic unit tests).
    pub fn disabled() -> Self {
        StragglerSpec {
            prob: 0.0,
            mean: SimDuration::from_millis(0),
        }
    }
}

/// Complete description of the simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of compute nodes (one MPI rank per node, as in the paper).
    pub nodes: usize,
    /// Sustained floating-point rate per node, flop/s.
    pub flops_per_sec: f64,
    /// Physical memory per node (bytes); bounds checkpoint image size.
    pub mem_bytes: u64,
    /// Interconnect model.
    pub net: NetSpec,
    /// Storage model.
    pub storage: StorageSpec,
    /// Coordination straggler model.
    pub straggler: StragglerSpec,
}

impl ClusterSpec {
    /// Calibration preset for the HKU Gideon 300 cluster used in the paper.
    ///
    /// * Pentium 4 2.0 GHz → ~1.2 Gflop/s sustained HPL rate.
    /// * Fast Ethernet → 12.5 MB/s, ~60 µs wire latency, ~45 µs per-message
    ///   software overhead (LAM/MPI over TCP).
    /// * Local IDE disk ~35 MB/s with 6 ms per-op overhead.
    /// * 4 remote checkpoint servers at ~28 MB/s effective (NFS).
    /// * Stragglers: 5% chance of an exponential 1.5 s delay at any
    ///   coordination point (kernel 2.4 scheduling, daemons, page-cache
    ///   flushes — the source of LAM/MPI's Fig-1 coordination spikes).
    pub fn gideon300(nodes: usize) -> Self {
        ClusterSpec {
            nodes,
            flops_per_sec: 1.2e9,
            mem_bytes: 512 * 1024 * 1024,
            net: NetSpec {
                latency: SimDuration::from_micros(60),
                per_msg_overhead: SimDuration::from_micros(45),
                bandwidth_bps: 12.5e6,
                loopback_bps: 400e6,
            },
            storage: StorageSpec {
                local_disk_bps: 35e6,
                local_seek: SimDuration::from_millis(6),
                remote_servers: 4,
                remote_disk_bps: 28e6,
                remote_seek: SimDuration::from_millis(8),
            },
            straggler: StragglerSpec {
                prob: 0.05,
                mean: SimDuration::from_millis(1500),
            },
        }
    }

    /// A tiny, fast, noise-free cluster for unit tests: 1 Gflop/s, 1 GB/s
    /// network with 10 µs latency, 1 GB/s disks, no stragglers.
    pub fn test(nodes: usize) -> Self {
        ClusterSpec {
            nodes,
            flops_per_sec: 1e9,
            mem_bytes: 1 << 30,
            net: NetSpec {
                latency: SimDuration::from_micros(10),
                per_msg_overhead: SimDuration::from_micros(0),
                bandwidth_bps: 1e9,
                loopback_bps: 10e9,
            },
            storage: StorageSpec {
                local_disk_bps: 1e9,
                local_seek: SimDuration::from_millis(0),
                remote_servers: 2,
                remote_disk_bps: 1e9,
                remote_seek: SimDuration::from_millis(0),
            },
            straggler: StragglerSpec::disabled(),
        }
    }

    /// Time to execute `flops` floating-point operations on one node.
    pub fn compute_time(&self, flops: f64) -> SimDuration {
        assert!(flops >= 0.0 && flops.is_finite(), "invalid flop count");
        SimDuration::from_secs_f64(flops / self.flops_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gideon_preset_is_sane() {
        let spec = ClusterSpec::gideon300(128);
        assert_eq!(spec.nodes, 128);
        assert!(spec.net.bandwidth_bps > 1e6);
        assert!(spec.storage.remote_servers == 4);
        assert!(spec.straggler.prob > 0.0);
    }

    #[test]
    fn compute_time_scales_linearly() {
        let spec = ClusterSpec::test(4);
        let t1 = spec.compute_time(1e9);
        let t2 = spec.compute_time(2e9);
        assert_eq!(t1.as_secs_f64(), 1.0);
        assert_eq!(t2, t1 * 2);
    }
}
