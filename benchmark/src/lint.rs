//! `lint_workspace`: the checked-out tree linted cold with
//! `lint_workspace`, then warm with `lint_workspace_cached` on a cache
//! directory private to this process (primed once at set-up and removed
//! when the workload is dropped).

use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use gcr_lint::cache::lint_workspace_cached;
use gcr_lint::{collect_workspace_files, lint_source, lint_workspace, load_baseline, Baseline};

use crate::pace::Clock;
use crate::run::Bench;
use crate::sample::Sample;
use crate::spans::Spans;
use crate::stats::{fold, FNV_OFFSET};

/// The lint workload over the tree at `root`.
pub struct Lint {
    root: PathBuf,
    baseline: Baseline,
    cache: PathBuf,
    min_samples: usize,
}

impl Lint {
    /// Lint the repository at `root` against its committed baseline,
    /// taking at least `min_samples` samples.
    ///
    /// # Errors
    /// The baseline cannot be read or the cache cannot be primed.
    pub fn new(root: &Path, min_samples: usize) -> std::io::Result<Self> {
        let baseline = load_baseline(&root.join("lint-baseline.json"))?;
        let cache = root
            .join("target")
            .join("gcr-benchmark")
            .join(format!("lint-cache-{}", std::process::id()));
        let lint = Lint {
            root: root.to_path_buf(),
            baseline,
            cache,
            min_samples,
        };
        lint_workspace_cached(&lint.root, &lint.baseline, &lint.cache)?;
        Ok(lint)
    }
}

impl Drop for Lint {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.cache);
    }
}

impl Bench for Lint {
    fn min_samples(&self) -> usize {
        self.min_samples
    }

    fn sample(&mut self, spans: &Rc<Spans>, clock: &mut Clock) -> Sample {
        let mut sample = Sample::default();
        let t = clock.start();
        let files = spans.time("lint.collect", || collect_workspace_files(&self.root));
        let (collect, t) = clock.lap(t);
        sample.setup_s = collect.scaled_s;
        let cold = spans.time("lint.cold", || lint_workspace(&self.root, &self.baseline));
        sample.wall_s = clock.stop(t).scaled_s;
        let t = Instant::now();
        let warm = spans.time("lint.warm", || {
            lint_workspace_cached(&self.root, &self.baseline, &self.cache)
        });
        let warm_s = t.elapsed().as_secs_f64();

        let files = match files {
            Ok(files) => files,
            Err(e) => {
                sample.errors.push(format!("collect: {e}"));
                return sample;
            }
        };
        if spans.enabled() {
            let t = Instant::now();
            spans.time("lint.local", || {
                for (rel, src) in &files {
                    std::hint::black_box(lint_source(rel, src));
                }
            });
            let v = &mut sample.values;
            v.insert("lint.local_s", t.elapsed().as_secs_f64());
            v.insert("lint.collect_s", collect.host_s);
            v.insert("lint.files", files.len() as f64);
        }

        let (cold, (warm, stats)) = match (cold, warm) {
            (Ok(c), Ok(w)) => (c, w),
            (Err(e), _) | (_, Err(e)) => {
                sample.errors.push(format!("lint: {e}"));
                return sample;
            }
        };
        if cold.new_count() > 0 {
            sample
                .errors
                .push(format!("{} new lint finding(s)", cold.new_count()));
        }
        if !stats.hit
            || warm.findings.len() != cold.findings.len()
            || warm.files_scanned != cold.files_scanned
        {
            sample
                .errors
                .push("the warm cached report differs from the cold one".to_string());
        }
        sample.digest = [cold.new_count() as u64, cold.findings.len() as u64]
            .into_iter()
            .fold(FNV_OFFSET, fold);
        if spans.enabled() {
            let v = &mut sample.values;
            v.insert("lint.findings", cold.new_count() as f64);
            v.insert("lint.cache_file_hits", stats.file_hits as f64);
            v.insert("lint.warm_s", warm_s);
        }
        sample
    }
}
