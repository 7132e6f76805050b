//! Offline stand-in for `criterion 0.5`: runs each benchmark body a few
//! times and prints a wall-clock mean, enough to compile and smoke-run
//! `harness = false` bench targets.

use std::time::Instant;

pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            iters: self.sample_size as u64,
            total_ns: 0,
            samples: 0,
        };
        f(&mut b);
        b.report(name);
        self
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            prefix: name.to_string(),
        }
    }

    /// Honors `--test` (as real Criterion does): run each benchmark body
    /// once, as a smoke test, instead of sampling it.
    pub fn configure_from_args(mut self) -> Self {
        if std::env::args().any(|a| a == "--test") {
            self.sample_size = 1;
        }
        self
    }

    pub fn final_summary(&self) {}
}

pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    prefix: String,
}

impl BenchmarkGroup<'_> {
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl AsRef<str>,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.prefix, name.as_ref());
        self.parent.bench_function(&full, f);
        self
    }

    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    pub fn finish(self) {}
}

pub struct Bencher {
    iters: u64,
    total_ns: u128,
    samples: u64,
}

impl Bencher {
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut body: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(body());
        }
        self.total_ns += start.elapsed().as_nanos();
        self.samples += self.iters;
    }

    fn report(&self, name: &str) {
        if self.samples > 0 {
            let mean = self.total_ns / self.samples as u128;
            println!("bench {name}: {mean} ns/iter ({} iters)", self.samples);
        } else {
            println!("bench {name}: no samples");
        }
    }
}

#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c: $crate::Criterion = $cfg.configure_from_args();
            $( $target(&mut c); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
