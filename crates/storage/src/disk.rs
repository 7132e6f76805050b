//! Per-device disk performance profiles.
//!
//! Used for worker-local disks (task sandbox I/O, cache hits) and as the
//! building block of the shared-filesystem presets. A transfer of `b` bytes
//! costs `access_latency + b / bandwidth`.

use vine_simcore::SimDur;

/// Performance parameters of one storage device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiskProfile {
    /// Human-readable device class.
    pub name: &'static str,
    /// Fixed cost to begin an access (seek + request overhead), seconds.
    pub access_latency_s: f64,
    /// Sequential read bandwidth, bytes/second.
    pub read_bw: f64,
    /// Sequential write bandwidth, bytes/second.
    pub write_bw: f64,
}

impl DiskProfile {
    /// Commodity 7.2k spinning disk (the HDFS cluster's media): ~10 ms
    /// seek, ~120 MB/s streaming.
    pub fn spinning_hdd() -> Self {
        DiskProfile {
            name: "hdd",
            access_latency_s: 10e-3,
            read_bw: 120e6,
            write_bw: 110e6,
        }
    }

    /// Datacenter NVMe SSD (the VAST cluster's media): ~80 µs access,
    /// multi-GB/s streaming.
    pub fn nvme() -> Self {
        DiskProfile {
            name: "nvme",
            access_latency_s: 80e-6,
            read_bw: 2.5e9,
            write_bw: 1.8e9,
        }
    }

    /// Typical campus-cluster worker scratch disk (SATA SSD class).
    pub const fn worker_scratch() -> Self {
        DiskProfile {
            name: "worker-scratch",
            access_latency_s: 300e-6,
            read_bw: 500e6,
            write_bw: 400e6,
        }
    }

    /// Time to read `bytes` sequentially.
    pub fn read_time(&self, bytes: u64) -> SimDur {
        SimDur::from_secs_f64(self.access_latency_s + bytes as f64 / self.read_bw)
    }

    /// Time to write `bytes` sequentially.
    pub fn write_time(&self, bytes: u64) -> SimDur {
        SimDur::from_secs_f64(self.access_latency_s + bytes as f64 / self.write_bw)
    }

    /// Time for `n` small metadata-ish accesses (directory walks, stat
    /// calls, byte-code probes): latency-bound, bandwidth ignored.
    pub fn metadata_ops(&self, n: u64) -> SimDur {
        SimDur::from_secs_f64(self.access_latency_s * n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vine_simcore::units::{GB, MB};

    #[test]
    fn hdd_read_is_latency_plus_stream() {
        let d = DiskProfile::spinning_hdd();
        // 120 MB at 120 MB/s = 1 s, plus 10 ms seek.
        let t = d.read_time(120 * MB);
        assert!((t.as_secs_f64() - 1.010).abs() < 1e-6, "{t:?}");
    }

    #[test]
    fn nvme_much_faster_than_hdd() {
        let hdd = DiskProfile::spinning_hdd();
        let nvme = DiskProfile::nvme();
        let b = GB;
        assert!(nvme.read_time(b) < hdd.read_time(b) / 10);
        assert!(nvme.metadata_ops(100) < hdd.metadata_ops(100) / 50);
    }

    #[test]
    fn zero_byte_access_costs_latency_only() {
        let d = DiskProfile::nvme();
        assert_eq!(d.read_time(0), SimDur::from_secs_f64(80e-6));
    }

    #[test]
    fn write_uses_write_bandwidth() {
        let d = DiskProfile::worker_scratch();
        assert!(d.write_time(GB) > d.read_time(GB));
    }

    #[test]
    fn metadata_ops_scale_linearly() {
        let d = DiskProfile::spinning_hdd();
        assert_eq!(d.metadata_ops(10), SimDur::from_millis(100));
    }
}
