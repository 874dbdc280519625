"""Per-layer metrics computed from the tracer's spans.

A span is ``(id, name, start, end, thread, parent, attrs)``.  Self time is
a span's duration minus the part of its interval covered by its child
spans.  Kernel FLOPs and bytes moved are computed from the argument
shapes recorded on each kernel span, not measured, and their units say
so.
"""

from collections import defaultdict

TAPS = (2, 5, 7, 10)

KERNELS = ("conv2d", "conv2d_backward", "maxpool2d", "maxpool2d_backward",
           "dense", "dense_backward")
FLOP_KERNELS = ("conv2d", "conv2d_backward", "dense", "dense_backward")
NETWORK_FUNCS = ("forward", "backward", "predict", "sgd_step", "train_classifier")


def catalogue(taps=TAPS):
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [("applicability.pair_separability.calls", "count", "higher"),
           ("applicability.pair_separability.p50_ms", "ms", "lower"),
           ("applicability.pair_separability.p90_ms", "ms", "lower")]
    out += [(f"applicability.pair_separability.tap{t}.p50_ms", "ms", "lower")
            for t in taps]
    out += [("applicability.prefix_forward_s", "s", "lower"),
            ("applicability.prefix_forwards", "count", "lower"),
            ("applicability.prefix_rows", "count", "lower"),
            ("applicability.prefix_useful_ratio", "1", "higher"),
            ("applicability.suffix_train_s", "s", "lower"),
            ("applicability.eval_s", "s", "lower"),
            ("applicability.worker_busy_ratio", "1", "higher")]
    for k in KERNELS:
        out += [(f"nn.layers.{k}.calls", "count", "lower"),
                (f"nn.layers.{k}.self_s", "s", "lower")]
    for k in FLOP_KERNELS:
        out += [(f"nn.layers.{k}.gflop", "GFLOP_computed", "lower"),
                (f"nn.layers.{k}.gbyte", "GB_computed", "lower"),
                (f"nn.layers.{k}.gflop_per_s", "GFLOP/s_computed", "higher")]
    out.append(("nn.layers.conv2d.rows_per_call", "rows", "higher"))
    for f in NETWORK_FUNCS:
        out += [(f"nn.network.{f}.calls", "count", "lower"),
                (f"nn.network.{f}.self_s", "s", "lower")]
    out += [("predictor.train_predictor.s", "s", "lower"),
            ("predictor.train_predictor.self_s", "s", "lower"),
            ("predictor.train_predictor.samples", "count", "higher")]
    for t in taps:
        out += [(f"predictor.train_predictor.tap{t}.s", "s", "lower"),
                (f"predictor.train_predictor.tap{t}.samples", "count", "higher")]
    out += [("predictor.predict_applicability.calls", "count", "lower"),
            ("predictor.predict_applicability.p50_ms", "ms", "lower"),
            ("predictor.predict_applicability.p99_ms", "ms", "lower"),
            ("predictor.predict_batch.calls", "count", "lower"),
            ("predictor.predict_batch.self_s", "s", "lower"),
            ("cactus.classify_or_flag.calls", "count", "higher"),
            ("cactus.classify_or_flag.p50_ms", "ms", "lower"),
            ("cactus.classify_or_flag.p99_ms", "ms", "lower"),
            ("cactus.route_step.calls", "count", "lower"),
            ("cactus.grow.self_s", "s", "lower"),
            ("cactus.create_branch.calls", "count", "lower"),
            ("cactus.create_branch.self_s", "s", "lower"),
            ("cactus.save_tree.self_s", "s", "lower"),
            ("cactus.save_tree.bytes", "bytes", "lower"),
            ("cactus.save_growth_log.self_s", "s", "lower"),
            ("data.generate_synthetic.calls", "count", "lower"),
            ("data.generate_synthetic.self_s", "s", "lower"),
            ("data.build_splits.self_s", "s", "lower"),
            ("data.load_dataset.self_s", "s", "lower"),
            ("nn.checkpoint.checkpoint_save.calls", "count", "lower"),
            ("nn.checkpoint.checkpoint_save.self_s", "s", "lower"),
            ("nn.checkpoint.checkpoint_save.bytes", "bytes", "lower"),
            ("nn.checkpoint.checkpoint_load.calls", "count", "lower"),
            ("nn.checkpoint.checkpoint_load.self_s", "s", "lower"),
            ("runner.run_measure.s", "s", "lower"),
            ("runner.run_train_predictors.s", "s", "lower"),
            ("runner.run_cactus.s", "s", "lower"),
            ("trace.overhead_ratio", "1", "lower")]
    return out


def percentile(values, q):
    """Linearly interpolated percentile (0 <= q <= 100); 0.0 when empty."""
    if not values:
        return 0.0
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for sid, _name, start, end, _tid, parent, _attrs in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - _covered(children[sid], start, end)
            for sid, _name, start, end, _tid, _parent, _attrs in spans}


def kernel_work(name, attrs):
    """Computed (flops, bytes) of one kernel call from its argument shapes."""
    size = attrs["itemsize"]
    if name in ("conv2d", "conv2d_backward"):
        x = attrs["x"] if len(attrs["x"]) == 4 else [1] + attrs["x"]
        n, h, w, cin = x
        kh, kw, _, cout = attrs["k"]
        s = attrs["stride"]
        ho, wo = (h - kh) // s + 1, (w - kw) // s + 1
        one = 2 * n * ho * wo * kh * kw * cin * cout
        x_el, k_el, y_el = n * h * w * cin, kh * kw * cin * cout, n * ho * wo * cout
        if name == "conv2d":
            return one, size * (x_el + k_el + y_el)
        # reads x, kernels, dout; writes dk and, when asked, dx
        dx = attrs["need_dx"]
        return (one * (2 if dx else 1),
                size * (x_el + k_el + y_el + k_el + (x_el if dx else 0)))
    n, din = attrs["x"]
    dout = attrs["w"][1]
    if name == "dense":
        return 2 * n * din * dout, size * (n * din + din * dout + dout + n * dout)
    # dW = x^T dout, dx = dout W^T, db = sum(dout)
    return (4 * n * din * dout + n * dout,
            size * (2 * n * din + 2 * din * dout + n * dout + dout))


def compute(spans, taps=TAPS):
    """Every catalogue metric except trace.overhead_ratio, as name -> value."""
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)

    def dur(s):
        return s[3] - s[2]

    def calls(name):
        # a span directly inside one of the same name is the same call
        # (checkpoint_load delegating to checkpoint_load_with_extra)
        return sum(1 for s in by_name[name]
                   if s[5] is None or by_id[s[5]][1] != name)

    def self_s(name):
        return sum(selfs[s[0]] for s in by_name[name])

    def total_s(name):
        return sum(dur(s) for s in by_name[name]
                   if s[5] is None or by_id[s[5]][1] != name)

    def ms(name, q, pick=lambda s: True):
        return percentile([dur(s) * 1e3 for s in by_name[name] if pick(s)], q)

    def under_job(s):
        while s[5] is not None:
            s = by_id[s[5]]
            if s[1] == "applicability.pair_separability":
                return True
        return False

    m = {}
    job = "applicability.pair_separability"
    m[f"{job}.calls"] = calls(job)
    m[f"{job}.p50_ms"] = ms(job, 50)
    m[f"{job}.p90_ms"] = ms(job, 90)
    for t in taps:
        m[f"{job}.tap{t}.p50_ms"] = ms(job, 50, lambda s, t=t: s[6]["tap"] == t)

    prefix = [s for s in by_name["nn.network.forward"]
              if s[5] is not None and by_id[s[5]][1] == job]
    m["applicability.prefix_forward_s"] = sum(dur(s) for s in prefix)
    m["applicability.prefix_forwards"] = len(prefix)
    m["applicability.prefix_rows"] = sum(s[6]["rows"] for s in prefix)
    # each job forwards the train and test splits of x and of un_j once
    distinct = {(cid, split, s[6]["tap"]) for s in by_name[job]
                for cid in (s[6]["x"], s[6]["un_j"]) for split in ("train", "test")}
    m["applicability.prefix_useful_ratio"] = (len(distinct) / len(prefix)
                                              if prefix else 0.0)
    m["applicability.suffix_train_s"] = sum(
        dur(s) for name in ("nn.network.backward", "nn.network.sgd_step")
        for s in by_name[name] if under_job(s))
    m["applicability.eval_s"] = sum(dur(s) for s in by_name["nn.network.predict"]
                                    if under_job(s))
    pool = sum(dur(s) * s[6]["workers"] for s in by_name["applicability.run_jobs"])
    m["applicability.worker_busy_ratio"] = (
        sum(dur(s) for s in by_name[job]) / pool if pool else 0.0)

    for k in KERNELS:
        name = f"nn.layers.{k}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for k in FLOP_KERNELS:
        name = f"nn.layers.{k}"
        flops = byts = 0
        for s in by_name[name]:
            f, b = kernel_work(k, s[6])
            flops += f
            byts += b
        m[f"{name}.gflop"] = flops / 1e9
        m[f"{name}.gbyte"] = byts / 1e9
        busy = m[f"{name}.self_s"]
        m[f"{name}.gflop_per_s"] = flops / 1e9 / busy if busy > 0 else 0.0
    conv = by_name["nn.layers.conv2d"]
    m["nn.layers.conv2d.rows_per_call"] = (
        sum(s[6]["x"][0] if len(s[6]["x"]) == 4 else 1 for s in conv) / len(conv)
        if conv else 0.0)
    for f in NETWORK_FUNCS:
        name = f"nn.network.{f}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)

    tp = "predictor.train_predictor"
    m[f"{tp}.s"] = total_s(tp)
    m[f"{tp}.self_s"] = self_s(tp)
    m[f"{tp}.samples"] = sum(s[6]["samples"] for s in by_name[tp])
    for t in taps:
        spans_t = [s for s in by_name[tp] if s[6]["tap"] == t]
        m[f"{tp}.tap{t}.s"] = sum(dur(s) for s in spans_t)
        m[f"{tp}.tap{t}.samples"] = sum(s[6]["samples"] for s in spans_t)
    pa = "predictor.predict_applicability"
    m[f"{pa}.calls"] = calls(pa)
    m[f"{pa}.p50_ms"] = ms(pa, 50)
    m[f"{pa}.p99_ms"] = ms(pa, 99)
    m["predictor.predict_batch.calls"] = calls("predictor.predict_batch")
    m["predictor.predict_batch.self_s"] = self_s("predictor.predict_batch")

    cf = "cactus.classify_or_flag"
    m[f"{cf}.calls"] = calls(cf)
    m[f"{cf}.p50_ms"] = ms(cf, 50)
    m[f"{cf}.p99_ms"] = ms(cf, 99)
    m["cactus.route_step.calls"] = calls("cactus.route_step")
    m["cactus.grow.self_s"] = self_s("cactus.grow")
    m["cactus.create_branch.calls"] = calls("cactus.create_branch")
    m["cactus.create_branch.self_s"] = self_s("cactus.create_branch")
    m["cactus.save_tree.self_s"] = self_s("cactus.save_tree")
    m["cactus.save_tree.bytes"] = sum(s[6]["bytes"] for s in by_name["cactus.save_tree"])
    m["cactus.save_growth_log.self_s"] = self_s("cactus.save_growth_log")

    m["data.generate_synthetic.calls"] = calls("data.generate_synthetic")
    m["data.generate_synthetic.self_s"] = self_s("data.generate_synthetic")
    m["data.build_splits.self_s"] = self_s("data.build_splits")
    m["data.load_dataset.self_s"] = self_s("data.load_dataset")

    cs, cl = "nn.checkpoint.checkpoint_save", "nn.checkpoint.checkpoint_load"
    m[f"{cs}.calls"] = calls(cs)
    m[f"{cs}.self_s"] = self_s(cs)
    m[f"{cs}.bytes"] = sum(s[6]["bytes"] for s in by_name[cs])
    m[f"{cl}.calls"] = calls(cl)
    m[f"{cl}.self_s"] = self_s(cl)

    for phase in ("run_measure", "run_train_predictors", "run_cactus"):
        m[f"runner.{phase}.s"] = total_s(f"runner.{phase}")
    return m
