//! Data-size and bandwidth units.
//!
//! The paper quotes sizes in decimal units (1.2 TB datasets, 40 GB
//! transfers, 108 GB worker disks); we follow suit. Bandwidths are in
//! bytes per second as `f64`.

/// One kilobyte (10³ bytes).
pub const KB: u64 = 1_000;
/// One megabyte (10⁶ bytes).
pub const MB: u64 = 1_000_000;
/// One gigabyte (10⁹ bytes).
pub const GB: u64 = 1_000_000_000;
/// One terabyte (10¹² bytes).
pub const TB: u64 = 1_000_000_000_000;

/// Gigabits per second expressed as bytes per second.
pub const fn gbit_per_sec(gbit: f64) -> f64 {
    gbit * 1e9 / 8.0
}

/// Megabytes per second expressed as bytes per second.
pub fn mb_per_sec(mb: f64) -> f64 {
    mb * 1e6
}

/// Human-readable size, e.g. `"1.20 TB"`, `"40.0 GB"`, `"512 B"`.
pub fn fmt_bytes(b: u64) -> String {
    let bf = b as f64;
    if b >= TB {
        format!("{:.2} TB", bf / TB as f64)
    } else if b >= GB {
        format!("{:.1} GB", bf / GB as f64)
    } else if b >= MB {
        format!("{:.1} MB", bf / MB as f64)
    } else if b >= KB {
        format!("{:.1} KB", bf / KB as f64)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_scale() {
        assert_eq!(KB * 1000, MB);
        assert_eq!(MB * 1000, GB);
        assert_eq!(GB * 1000, TB);
    }

    #[test]
    fn bandwidth_conversions() {
        assert_eq!(gbit_per_sec(10.0), 1.25e9);
        assert_eq!(mb_per_sec(120.0), 1.2e8);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(1_200_000_000_000), "1.20 TB");
        assert_eq!(fmt_bytes(40 * GB), "40.0 GB");
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2500), "2.5 KB");
    }
}
