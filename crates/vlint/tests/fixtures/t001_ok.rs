//! T001 true negatives: thread-flavored vocabulary without host threads.

struct CampaignConfig {
    threads: usize,
}

impl CampaignConfig {
    fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }
}

fn panic_label() -> &'static str {
    "campaign worker thread panicked"
}
