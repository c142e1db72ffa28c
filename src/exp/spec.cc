#include "exp/spec.hh"

#include <algorithm>

#include "workload/trace/trace_capture.hh"
#include "workload/trace/trace_replay.hh"
#include "workload/workload_factory.hh"

namespace persim::exp
{

bool
ExperimentSpec::isMicro() const
{
    for (auto k : workload::allMicroKinds()) {
        if (workload == workload::toString(k))
            return true;
    }
    return false;
}

std::string
ExperimentSpec::id() const
{
    return workload + "/" + configLabel + "/s" + std::to_string(seed);
}

model::SystemConfig
ExperimentSpec::toSystemConfig() const
{
    model::SystemConfig cfg =
        cores == 32 ? model::SystemConfig::paperTable1()
                    : model::SystemConfig::smallTest(cores);
    applyPersistencyModel(cfg, pm, barrier, epochSize);
    if (pm == model::PersistencyModel::BufferedStrict && !logging) {
        cfg.barrier.logging = false; // LB++NOLOG ablation
        cfg.barrier.checkpointLines = 0;
    }
    cfg.seed = seed;
    cfg.barrier.invalidatingFlush = invalidatingFlush;
    cfg.barrier.useArbiter = useArbiter;
    cfg.barrier.maxInflightEpochs = maxInflightEpochs;
    cfg.barrier.idtRegsPerEpoch = idtRegsPerEpoch;
    cfg.barrier.avoidTaggedVictims = avoidTaggedVictims;
    cfg.nvram.writeLatency = nvramWriteLatency;
    cfg.l1.geometry.policy = replacementPolicy;
    cfg.llcBank.geometry.policy = replacementPolicy;
    if (llcBankBytes != 0)
        cfg.llcBank.geometry.sizeBytes = llcBankBytes;
    return cfg;
}

std::vector<std::unique_ptr<cpu::Workload>>
ExperimentSpec::buildWorkloads(
    std::shared_ptr<workload::trace::TraceCaptureWriter> *capture) const
{
    std::vector<std::unique_ptr<cpu::Workload>> ws;
    if (traceData) {
        ws = workload::trace::makeTraceReplay(traceData, cores);
    } else if (!traceFile.empty()) {
        ws = workload::makeTraceReplayWorkloads(traceFile, cores);
    } else if (isMicro()) {
        workload::MicroConfig mc;
        mc.kind = workload::microKindFromName(workload);
        mc.numThreads = cores;
        mc.opsPerThread = ops;
        mc.seed = seed;
        ws = workload::makeMicroWorkloads(mc);
    } else {
        ws = workload::makeSyntheticWorkloads(workload, cores, ops,
                                              seed);
    }
    if (capture != nullptr && !captureFile.empty())
        *capture = workload::trace::wrapWithCapture(ws, workload, seed);
    return ws;
}

JsonValue
ExperimentSpec::toJson() const
{
    JsonValue out = JsonValue::object();
    out["sweep"] = JsonValue(sweep);
    out["workload"] = JsonValue(workload);
    out["config"] = JsonValue(configLabel);
    out["model"] = JsonValue(model::toString(pm));
    out["barrier"] = JsonValue(persist::toString(barrier));
    out["epochSize"] = JsonValue(epochSize);
    out["logging"] = JsonValue(logging);
    out["cores"] = JsonValue(cores);
    out["ops"] = JsonValue(ops);
    out["seed"] = JsonValue(seed);
    // Ablation knobs are emitted only when they differ from their
    // defaults, so the documents of grids that leave them alone (the
    // paper figures) keep their recorded digests.
    const ExperimentSpec def;
    if (invalidatingFlush != def.invalidatingFlush)
        out["invalidatingFlush"] = JsonValue(invalidatingFlush);
    if (useArbiter != def.useArbiter)
        out["useArbiter"] = JsonValue(useArbiter);
    if (maxInflightEpochs != def.maxInflightEpochs)
        out["maxInflightEpochs"] = JsonValue(maxInflightEpochs);
    if (idtRegsPerEpoch != def.idtRegsPerEpoch)
        out["idtRegsPerEpoch"] = JsonValue(idtRegsPerEpoch);
    if (nvramWriteLatency != def.nvramWriteLatency)
        out["nvramWriteLatency"] = JsonValue(nvramWriteLatency);
    if (replacementPolicy != def.replacementPolicy)
        out["replacementPolicy"] = JsonValue(
            replacementPolicy == cache::ReplacementPolicy::Lru ? "lru"
                                                               : "random");
    if (avoidTaggedVictims != def.avoidTaggedVictims)
        out["avoidTaggedVictims"] = JsonValue(avoidTaggedVictims);
    if (llcBankBytes != def.llcBankBytes)
        out["llcBankBytes"] = JsonValue(llcBankBytes);
    return out;
}

void
Sweep::crossSeeds(const std::vector<std::uint64_t> &seeds)
{
    if (seeds.size() <= 1)
        return;
    std::vector<ExperimentSpec> expanded;
    expanded.reserve(jobs.size() * seeds.size());
    for (const ExperimentSpec &base : jobs) {
        for (std::uint64_t s : seeds) {
            ExperimentSpec spec = base;
            spec.seed = mixSeed(base.seed, s);
            expanded.push_back(std::move(spec));
        }
    }
    jobs = std::move(expanded);
}

std::shared_ptr<const workload::trace::TraceData>
Sweep::replayTrace(const std::string &path)
{
    auto trace = workload::trace::openTrace(path);
    std::vector<ExperimentSpec> rows;
    std::vector<std::string> seenConfigs;
    for (const ExperimentSpec &s : jobs) {
        if (std::find(seenConfigs.begin(), seenConfigs.end(),
                      s.configLabel) != seenConfigs.end())
            continue;
        seenConfigs.push_back(s.configLabel);
        ExperimentSpec spec = s;
        spec.workload = trace->meta.name;
        spec.cores = trace->meta.threadCount;
        spec.traceData = trace;
        rows.push_back(std::move(spec));
    }
    jobs = std::move(rows);
    return trace;
}

std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t salt)
{
    // splitmix64 over base ^ golden-ratio-scaled salt: cheap, well
    // distributed, and identical on every platform.
    std::uint64_t z = base + salt * UINT64_C(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
    return z ^ (z >> 31);
}

} // namespace persim::exp
