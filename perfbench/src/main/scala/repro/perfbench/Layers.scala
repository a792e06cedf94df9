package repro.perfbench

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import repro.assign.{Assigner, EaiAssigner}
import repro.baselines.{InferState, TdhInference, TruthInference}
import repro.core.{TdhHyper, TdhLocal, TdhResult, TdhSpark}
import repro.crowd.CrowdLoop
import repro.data.{AnswerLog, ObjectView, Record, TdDataset, TruthDataGen}
import repro.eval.Metrics

/** The traced run: times each layer from outside, by spans around the calls
  * into it, and prints the per-layer metrics. Every traced run, whatever its
  * workload, measures every layer, so the per-layer figures of any run can be
  * compared with those of any other.
  */
object Layers {

  /** Repetitions behind each per-layer median. */
  private val Reps = 5

  /** EM cap of the runs behind `core.em_iter_ms`. */
  private val IterCap = 100

  private val DatasetNames = Seq("birthplaces", "heritages")

  def run(opts: Opts): Outcome = new Layers(opts).run()

  /** BirthPlaces with every object copied `scale` times (Fig. 13's data). */
  def duplicated(base: TdDataset, scale: Int): TdDataset = {
    val records = for (k <- 0 until scale; r <- base.records) yield Record(r.obj + k * base.numObjects, r.source, r.value)
    TdDataset(base.hierarchy, base.numObjects * scale, base.numSources, records.toVector,
      Array.tabulate(base.numObjects * scale)(o => base.gold(o % base.numObjects)))
  }

  /** Inference timed by a span around each call the crowd loop makes. */
  final class TimedInference(inner: TruthInference, tr: Tracer, spanName: String) extends TruthInference {
    val name: String = inner.name
    def infer(views: Array[ObjectView], answers: AnswerLog): InferState = tr.span(spanName)(inner.infer(views, answers))
  }

  final class TimedAssigner(inner: Assigner, tr: Tracer, spanName: String) extends Assigner {
    val name: String = inner.name
    def assign(state: InferState, answers: AnswerLog, workers: Seq[Int], k: Int): Seq[(Int, Int)] =
      tr.span(spanName)(inner.assign(state, answers, workers, k))
  }

  /** Assigns on a copy of `state` whose `answerProb` counts its calls. */
  def countProbCalls(a: Assigner, state: InferState, answers: AnswerLog, workers: Seq[Int], k: Int): Long = {
    var calls = 0L
    val inner = state.answerProb
    a.assign(state.copy(answerProb = (o, w, u, v) => { calls += 1; inner(o, w, u, v) }), answers, workers, k)
    calls
  }
}

private final class Layers(opts: Opts) {
  import Layers._

  private val tr = new Tracer
  private val inputs = new Inputs(opts.seed)
  private val metrics = ArrayBuffer.empty[Metric]
  private var attempted = 0
  private var failed = 0

  private def put(name: String, value: Double, unit: String): Unit = metrics += Metric(name, value, unit)

  private def verify(problems: Seq[String]): Unit = {
    attempted += 1
    if (problems.nonEmpty) {
      failed += 1
      problems.take(5).foreach(p => System.err.println(s"[perfbench] trace: $p"))
    }
  }

  def run(): Outcome = {
    val data = dataLayer()
    val refs = data.map(new Reference(_))
    val batch = coreLayer(data, refs)
    baselinesLayer(data, refs)
    val answers = crowdLayer(data.head, refs.head, batch.head)
    afterCrowd(data.head, answers)
    fig13(data.head)
    sparkLayer(data.head, refs.head)
    val outcome = Outcome(failed == 0, attempted, failed, metrics.toSeq)
    val path = opts.workDir.resolve(s"trace-${opts.workload}-seed${opts.seed}.json")
    tr.write(path, opts.workload, opts.seed, outcome)
    System.err.println(s"[perfbench] trace written to $path")
    outcome
  }

  // ------------------------------------------------------------------ data

  private def dataLayer(): Seq[TdDataset] = {
    val gens = Seq(() => TruthDataGen.birthPlaces(), () => TruthDataGen.heritages())
    DatasetNames.zip(gens).map { case (n, gen) =>
      val raw = inputs.relabel(tr.repeat(Reps, s"data.gen.$n")(gen()))
      tr.repeat(Reps, s"data.compile.$n")(Inputs.compile(raw.copy()))
      val ds = Inputs.compile(raw)
      put(s"data.gen_ms.$n", tr.medianMs(s"data.gen.$n"), "ms")
      put(s"data.compile_ms.$n", tr.medianMs(s"data.compile.$n"), "ms")
      put(s"data.claims.$n", ds.records.size, "count")
      put(s"data.candidates.$n", ds.views.map(_.nCands.toLong).sum, "count")
      put(s"data.objects_oh.$n", ds.views.count(_.inOH), "count")
      ds
    }
  }

  /** Answers read per inference: one `answersFor` pass over every object. */
  private def afterCrowd(bp: TdDataset, answers: AnswerLog): Unit = {
    tr.repeat(Reps, "data.answer_scan") {
      var n = 0L
      for (o <- 0 until bp.numObjects) n += answers.answersFor(o).size
      n
    }
    put("data.answer_scan_ms", tr.medianMs("data.answer_scan"), "ms")
    tr.repeat(Reps, "core.tdh_answers")(TdhLocal.run(bp.views, answers, TdhHyper()))
    put("core.tdh_answers_ms", tr.medianMs("core.tdh_answers"), "ms")
  }

  // ------------------------------------------------------------------ core

  /** @return each dataset's default TDH result */
  private def coreLayer(data: Seq[TdDataset], refs: Seq[Reference]): Seq[TdhResult] =
    DatasetNames.indices.map { i =>
      val (n, ds) = (DatasetNames(i), data(i))
      val hyper = TdhHyper()
      val empty = new AnswerLog(ds.numObjects)
      def capped(h: TdhHyper) = TdhLocal.run(ds.views, empty, h)
      tr.repeat(Reps, s"core.warmup.$n")(capped(hyper))
      val res = tr.repeat(Reps, s"core.tdh.$n")(capped(hyper))
      tr.repeat(Reps, s"core.em_init.$n")(capped(hyper.copy(maxIters = 0)))
      tr.repeat(Reps, s"core.em_cap1.$n")(capped(hyper.copy(maxIters = 1, tol = 0.0)))
      tr.repeat(Reps, s"core.em_capN.$n")(capped(hyper.copy(maxIters = IterCap, tol = 0.0)))

      // Iterations, from outside: the smallest cap that gives the default
      // run's μ exactly (EM stops at the first iteration with Δμ <= tol).
      def same(r: TdhResult) = r.mu.indices.forall(o => java.util.Arrays.equals(r.mu(o), res.mu(o)))
      val iters = tr.span(s"core.em_iters.$n") {
        val cap = hyper.maxIters
        if (!same(capped(hyper.copy(maxIters = cap - 1)))) cap
        else {
          var (lo, hi) = (0, cap - 1)
          while (lo < hi) { val mid = (lo + hi) / 2; if (same(capped(hyper.copy(maxIters = mid)))) hi = mid else lo = mid + 1 }
          lo
        }
      }
      val prev = capped(hyper.copy(maxIters = math.max(0, iters - 1)))
      val finalDelta = res.mu.indices.iterator.map(o => res.mu(o).indices.map(j => math.abs(res.mu(o)(j) - prev.mu(o)(j))).max).max

      val alloc = (1 to 3).map { _ =>
        val a0 = Stats.allocatedBytes()
        capped(hyper)
        (Stats.allocatedBytes() - a0) / (1024.0 * 1024.0)
      }

      put(s"core.tdh_ms.$n", tr.medianMs(s"core.tdh.$n"), "ms")
      put(s"core.em_init_ms.$n", tr.medianMs(s"core.em_init.$n"), "ms")
      put(s"core.em_iter_ms.$n", (tr.medianMs(s"core.em_capN.$n") - tr.medianMs(s"core.em_cap1.$n")) / (IterCap - 1), "ms")
      put(s"core.em_iters.$n", iters, "count")
      put(s"core.em_final_delta.$n", finalDelta, "prob")
      put(s"core.alloc_mb.$n", Stats.median(alloc), "MB")
      verify(TdhBatch.problems(s"TDH on $n", ds, refs(i), res, hyper))
      res
    }

  // ------------------------------------------------------------- baselines

  private def baselinesLayer(data: Seq[TdDataset], refs: Seq[Reference]): Unit = {
    val algs = data.map(Baselines.algorithms)
    def pass(spanPrefix: String): Seq[Seq[InferState]] =
      data.indices.map(i => algs(i).map(a => tr.span(s"$spanPrefix.${a.name.toLowerCase}")(a.infer(data(i).views, new AnswerLog(data(i).numObjects)))))
    tr.span("baselines.warmup")(pass("baselines.warmup"))
    val a0 = Stats.allocatedBytes()
    val last = pass("baselines")
    put("baselines.alloc_mb", (Stats.allocatedBytes() - a0) / (1024.0 * 1024.0), "MB")
    for (a <- algs.head) {
      val key = a.name.toLowerCase
      put(s"baselines.${key}_ms", tr.ms(s"baselines.$key").sum, "ms")
    }
    for (i <- data.indices; (a, st) <- algs(i).zip(last(i)))
      verify(Baselines.problems(s"${a.name} on ${DatasetNames(i)}", data(i), refs(i), a, st))
  }

  // ------------------------------------------------------- crowd and assign

  /** The 50-round TDH+EAI loop twice: `CrowdLoop.run` with timed wrappers,
    * then the same loop driven call by call, which must reproduce the
    * former's accuracy trace exactly.
    *
    * @return the call-by-call loop's final answer log
    */
  private def crowdLayer(bp: TdDataset, ref: Reference, batch: TdhResult): AnswerLog = {
    import CrowdEai.{K, Rounds}
    val (refTrace, _) = tr.span("crowd.loop")(CrowdLoop.run(bp,
      new TimedInference(new TdhInference(), tr, "crowd.loop.infer"),
      new TimedAssigner(new EaiAssigner(), tr, "crowd.loop.assign"),
      inputs.workers(CrowdEai.Workers, CrowdEai.PiP), Rounds, K))
    val loopInfer = tr.spans("crowd.loop.infer")
    val loopAssign = tr.spans("crowd.loop.assign")
    val loopRoundMs = (0 until Rounds).map(r => (loopInfer(r + 1).start - loopInfer(r).start) / 1e6)
    val loopOverheadMs = (0 until Rounds).map(r => loopRoundMs(r) - loopInfer(r).ms - loopAssign(r).ms)

    val answers = new AnswerLog(bp.numObjects)
    val answered = mutable.HashSet.empty[(Int, Int)]
    val workers = inputs.workers(CrowdEai.Workers, CrowdEai.PiP)
    val inference = new TdhInference()
    val pruned = new EaiAssigner()
    val unpruned = new EaiAssigner(pruned = false)
    val accuracies = ArrayBuffer.empty[Double]
    val probCalls = ArrayBuffer.empty[Double]
    val probCallsUnpruned = ArrayBuffer.empty[Double]
    val roundMs = ArrayBuffer.empty[Double]
    for (round <- 0 to Rounds) tr.span("crowd.round") {
      val state = tr.span("crowd.infer")(inference.infer(bp.views, answers))
      var programMs = tr.spans("crowd.infer").last.ms
      if (round < Rounds) {
        val tasks = tr.span("crowd.assign")(pruned.assign(state, answers, workers.ids, K))
        programMs += tr.spans("crowd.assign").last.ms
        // Beside the loop, not part of its round time.
        val tasksUnpruned = tr.span("assign.eai_unpruned")(unpruned.assign(state, answers, workers.ids, K))
        probCalls += countProbCalls(pruned, state, answers, workers.ids, K).toDouble
        probCallsUnpruned += countProbCalls(unpruned, state, answers, workers.ids, K).toDouble
        verify(AssignmentRules.problems(tasks, workers.ids, K, (w, o) => answered((w, o))) ++
          (if (tasks.toSet != tasksUnpruned.toSet) Seq(s"round $round: pruned EAI assignment differs from unpruned") else Nil))
        tr.span("crowd.answer")(tasks.foreach { case (w, o) => answers.add(o, w, workers.answer(bp, w, o)) })
        programMs += tr.spans("crowd.answer").last.ms
        answered ++= tasks
      }
      val acc = tr.span("eval.metrics") {
        val est = state.truthValues
        val a = Metrics.accuracy(bp, est)
        Metrics.genAccuracy(bp, est)
        Metrics.avgDistance(bp, est)
        a
      }
      programMs += tr.spans("eval.metrics").last.ms
      accuracies += acc
      if (round < Rounds) roundMs += programMs
    }

    val batchAccuracy = ref.hits(batch.truthValues(bp.views)).toDouble / bp.numObjects
    verify(Seq(
      if (accuracies != refTrace.map(_.accuracy)) Some("the call-by-call loop's accuracy trace differs from CrowdLoop.run's") else None,
      if (refTrace.head.accuracy != batchAccuracy) Some(s"round-0 accuracy ${refTrace.head.accuracy} differs from batch TDH $batchAccuracy") else None,
      if (!(refTrace.last.accuracy > batchAccuracy)) Some(s"round-$Rounds accuracy ${refTrace.last.accuracy} does not exceed batch TDH $batchAccuracy") else None,
    ).flatten)

    // RoundTrace's own timings are whole milliseconds; the wrappers time the
    // same calls in nanoseconds.
    put("crowd.infer_ms", Stats.median(loopInfer.map(_.ms)), "ms")
    put("crowd.assign_ms", Stats.median(loopAssign.map(_.ms)), "ms")
    put("crowd.round_ms_p90", Stats.quantile(loopRoundMs ++ roundMs, 0.9), "ms")
    put("crowd.overhead_ms", Stats.median(loopOverheadMs), "ms")
    put("crowd.answers", answers.totalAnswers, "count")
    put("eval.metrics_ms", tr.medianMs("eval.metrics"), "ms")
    put("assign.eai_ms", tr.medianMs("crowd.assign"), "ms")
    put("assign.eai_unpruned_ms", tr.medianMs("assign.eai_unpruned"), "ms")
    put("assign.prob_calls", Stats.median(probCalls.toSeq), "count")
    put("assign.prob_calls_unpruned", Stats.median(probCallsUnpruned.toSeq), "count")
    answers
  }

  /** Fig. 13: EAI with and without U_EAI pruning on BirthPlaces×{1, 4}, on
    * the state before any answer, as times and as `answerProb` calls.
    */
  private def fig13(bp: TdDataset): Unit = {
    val workers = inputs.workers(CrowdEai.Workers, CrowdEai.PiP).ids
    val pruned = new EaiAssigner()
    val unpruned = new EaiAssigner(pruned = false)
    for (scale <- Seq(1, 4)) {
      val ds = if (scale == 1) bp else tr.span(s"assign.x$scale.data")(Inputs.compile(duplicated(bp, scale)))
      val empty = new AnswerLog(ds.numObjects)
      val state = tr.span(s"assign.x$scale.infer")(new TdhInference().infer(ds.views, empty))
      for (_ <- 1 to 2) { pruned.assign(state, empty, workers, CrowdEai.K); unpruned.assign(state, empty, workers, CrowdEai.K) }
      var tasks, tasksUnpruned = Seq.empty[(Int, Int)]
      for (_ <- 1 to 2 * Reps - 1) {
        tasks = tr.span(s"assign.eai.x$scale")(pruned.assign(state, empty, workers, CrowdEai.K))
        tasksUnpruned = tr.span(s"assign.eai_unpruned.x$scale")(unpruned.assign(state, empty, workers, CrowdEai.K))
      }
      verify(AssignmentRules.problems(tasks, workers, CrowdEai.K, (_, _) => false) ++
        (if (tasks.toSet != tasksUnpruned.toSet) Seq(s"×$scale: pruned EAI assignment differs from unpruned") else Nil))
      put(s"assign.eai_ms.x$scale", tr.medianMs(s"assign.eai.x$scale"), "ms")
      put(s"assign.eai_unpruned_ms.x$scale", tr.medianMs(s"assign.eai_unpruned.x$scale"), "ms")
      put(s"assign.prob_calls.x$scale", countProbCalls(pruned, state, empty, workers, CrowdEai.K).toDouble, "count")
      put(s"assign.prob_calls_unpruned.x$scale", countProbCalls(unpruned, state, empty, workers, CrowdEai.K).toDouble, "count")
    }
  }

  // ----------------------------------------------------------------- spark

  private def sparkLayer(bp: TdDataset, ref: Reference): Unit = {
    val spark = tr.span("spark.session")(SparkBench.session(opts.workDir))
    try {
      val counters = new SparkCounters
      spark.sparkContext.addSparkListener(counters)
      val empty = new AnswerLog(bp.numObjects)
      def op(iters: Int) = TdhSpark.runOnDataset(spark, bp, empty, SparkTdh.hyper, iters)

      // The first op is cold; it gives the scheduler counts of one op.
      counters.settle()
      counters.reset()
      val (run, est) = tr.span("spark.op.cold")(op(SparkTdh.Iterations))
      counters.settle()
      put("spark.jobs", counters.jobsEnded.get.toDouble, "count")
      put("spark.tasks", counters.tasksEnded.get.toDouble, "count")
      put("spark.shuffle_mb", counters.shuffleBytes.get / (1024.0 * 1024.0), "MB")
      val local = TdhLocal.run(bp.views, empty, SparkTdh.hyper.copy(maxIters = SparkTdh.Iterations))
      verify(SparkTdh.problems(bp, local, run, est) ++ Workloads.accuracyProblems("Spark TDH", bp, ref, est))

      val h = bp.hierarchy
      val nodes = TdhSpark.nodesDf(spark, h)
      tr.span("spark.closure")(TdhSpark.ancestorClosure(nodes, h.height).count())
      val closure = TdhSpark.ancestorClosure(nodes, h.height)
      val records = bp.recordsDf(spark)
      val static0 = tr.span("spark.static")(TdhSpark.staticRelation(records, nodes, closure).localCheckpoint(true))
      put("spark.static_rows", static0.count().toDouble, "count")
      tr.span("spark.run0")(op(0))
      tr.span("spark.op")(op(SparkTdh.Iterations))

      put("spark.session_s", tr.medianMs("spark.session") / 1000, "s")
      put("spark.closure_ms", tr.medianMs("spark.closure"), "ms")
      put("spark.static_ms", tr.medianMs("spark.static"), "ms")
      put("spark.run0_ms", tr.medianMs("spark.run0"), "ms")
      put("spark.iter_ms", (tr.medianMs("spark.op") - tr.medianMs("spark.run0")) / SparkTdh.Iterations, "ms")
    } finally spark.stop()
  }
}

/** The Spark TDH op of the traced run: `TdhSpark.runOnDataset` on BirthPlaces
  * at a fixed iteration count.
  */
object SparkTdh {
  /** EM iterations per op; `tol = 0` so the count never depends on Δμ. */
  val Iterations = 3
  val hyper: TdhHyper = TdhHyper(tol = 0.0)

  /** μ within 1e-9 of `TdhLocal.run` at the same iteration count (the
    * tolerance TdhSparkSpec holds it to), and the same truths.
    */
  def problems(ds: TdDataset, local: TdhResult, run: TdhSpark.SparkRun, est: Array[Int]): Seq[String] = {
    val muRows = run.mu.collect()
    val localTruth = local.truthValues(ds.views)
    val muBad = muRows.iterator.flatMap { r =>
      val (o, v, m) = (r.getInt(0), r.getInt(1), r.getDouble(2))
      val j = ds.views(o).candIndex(v)
      if (j < 0) Some(s"Spark μ names value $v, not a candidate of object $o")
      else if (math.abs(m - local.mu(o)(j)) > 1e-9) Some(s"Spark μ($o,$v) = $m, local ${local.mu(o)(j)}")
      else None
    }.take(5).toSeq
    val nCands = ds.views.map(_.nCands.toLong).sum
    Seq(
      if (run.iterations != Iterations) Some(s"Spark ran ${run.iterations} iterations, not $Iterations") else None,
      if (muRows.length != nCands) Some(s"Spark μ has ${muRows.length} rows, the views $nCands candidates") else None,
    ).flatten ++ muBad ++
      est.indices.filter(o => est(o) != localTruth(o)).take(5)
        .map(o => s"Spark truth ${est(o)} for object $o, local ${localTruth(o)}")
  }
}
