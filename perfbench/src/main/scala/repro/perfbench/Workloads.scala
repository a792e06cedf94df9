package repro.perfbench

import repro.assign.EaiAssigner
import repro.baselines._
import repro.core.{TdhHyper, TdhLocal, TdhResult}
import repro.crowd.{CrowdLoop, RoundTrace}
import repro.data.{AnswerLog, TdDataset}
import repro.eval.Metrics

object Workloads {
  /** Spark TDH and the nine baselines are not among them; the traced run
    * measures their layers. One Spark op takes 11–16 s and a cold first op
    * ~20 s, so a run of it would cost more than the local workloads together
    * while yielding one op. The baselines' op time spread over 10 seeds by
    * 0.09–0.25 at 20-second runs, at the bound (see the README).
    */
  val names: Seq[String] = Seq("tdh_batch", "crowd_eai")

  def apply(name: String, inputs: Inputs): Workload[_] = name match {
    case "tdh_batch" => new TdhBatch(inputs)
    case "crowd_eai" => new CrowdEai(inputs)
  }

  /** BirthPlaces and Heritages, with the program's seconds spent on them. */
  def both(inputs: Inputs): (Seq[TdDataset], Double) = {
    val (bp, t1) = inputs.birthPlaces()
    val (her, t2) = inputs.heritages()
    (Seq(bp, her), t1 + t2)
  }

  /** Checks shared by every workload: the benchmark's own accuracy count
    * equals `Metrics.accuracy`.
    */
  def accuracyProblems(label: String, ds: TdDataset, ref: Reference, truths: Array[Int]): Seq[String] = {
    val own = ref.hits(truths).toDouble / truths.length
    val program = Metrics.accuracy(ds, truths)
    if (own != program) Seq(s"$label: benchmark counts accuracy $own, Metrics.accuracy says $program") else Nil
  }

  /** Largest change of μ, and of φ, that one more EM step may make. EM stops
    * at its 100-iteration cap before it converges: on the benchmark's inputs
    * (every seed relabels the same instances, so the figures do not move) one
    * more step moves μ by 1.27e-5 (BirthPlaces) and 3.81e-5 (Heritages), and
    * φ by 3.01e-5 and 7.81e-5. The tolerances leave a factor of about 2.5 over
    * the larger of each. An α term of Eq. (10) or a γ term of Eq. (9) taken
    * as α or γ instead of α − 1 or γ − 1 moves them far beyond (README, Checks).
    */
  val StepTolMu = 1e-4
  val StepTolPhi = 2e-4
}

/** TDH batch inference without answers on BirthPlaces, then Heritages
  * (Table 3's TDH rows). The op calls `TdhLocal.run`, the whole of
  * `TdhInference.infer` bar packaging, because the check needs φ.
  */
final class TdhBatch(inputs: Inputs) extends Workload[Seq[TdhResult]] {
  val name = "tdh_batch"
  private val hyper = TdhHyper()
  private var data: Seq[TdDataset] = Nil
  private var refs: Seq[Reference] = Nil

  def setUp(): Double = { val (d, t) = Workloads.both(inputs); data = d; t }
  def prepareChecks(): Unit = refs = data.map(new Reference(_))
  def warmUp(): Unit = for (_ <- 1 to 10) op()

  def op(): Seq[TdhResult] = data.map(ds => TdhLocal.run(ds.views, new AnswerLog(ds.numObjects), hyper))

  def check(out: Seq[TdhResult]): Seq[String] =
    data.indices.flatMap(i => TdhBatch.problems(s"TDH on dataset $i", data(i), refs(i), out(i), hyper))

  def hits(out: Seq[TdhResult]): (Long, Long) =
    data.indices.map(i => (refs(i).hits(out(i).truthValues(data(i).views)), data(i).numObjects.toLong))
      .reduce((a, b) => (a._1 + b._1, a._2 + b._2))
}

object TdhBatch {
  def problems(label: String, ds: TdDataset, ref: Reference, r: TdhResult, hyper: TdhHyper): Seq[String] =
    ref.tdhProblems(label, o => ds.views(o).cands, r.mu, r.phi, r.truthIdx, hyper,
      Workloads.StepTolMu, Workloads.StepTolPhi) ++
      Workloads.accuracyProblems(label, ds, ref, r.truthValues(ds.views))
}

/** The nine single-truth baselines and their checks, for the traced run. */
object Baselines {
  /** Every truth is a candidate, VOTE's truths are the majority, and the
    * accuracy counts agree.
    */
  def problems(label: String, ds: TdDataset, ref: Reference, alg: TruthInference, st: InferState): Seq[String] = {
    val base = ref.truthProblems(label, o => ds.views(o).cands, st.truthIdx)
    if (base.nonEmpty) return base
    val vote =
      if (alg.name != "VOTE") Nil
      else st.truthIdx.indices.filter(o => st.truthIdx(o) != ref.majority(o)).take(5)
        .map(o => s"$label: object $o truth ${st.truthIdx(o)} is not the majority ${ref.majority(o)}")
    vote ++ Workloads.accuracyProblems(label, ds, ref, st.truthValues)
  }

  def algorithms(ds: TdDataset): Seq[TruthInference] = Seq(
    new VoteInference(),
    new LcaInference(),
    new DocsInference(ds.hierarchy),
    new AsumsInference(),
    new MdcInference(),
    new AccuInference(popularityFalse = false),
    new AccuInference(popularityFalse = true),
    new LfcInference(),
    new CrhInference(),
  )
}

/** One Table 4 combo: TDH+EAI on BirthPlaces, 50 rounds of 10 simulated
  * workers × 5 tasks, π_p = 0.75.
  */
final class CrowdEai(inputs: Inputs) extends Workload[(Vector[RoundTrace], InferState)] {
  val name = "crowd_eai"
  private var ds: TdDataset = _
  private var ref: Reference = _
  private var batchAccuracy = 0.0

  def setUp(): Double = { val (d, t) = inputs.birthPlaces(); ds = d; t }

  def prepareChecks(): Unit = {
    ref = new Reference(ds)
    batchAccuracy = ref.hits(new TdhInference().infer(ds.views, new AnswerLog(ds.numObjects)).truthValues).toDouble /
      ds.numObjects
  }

  /** One whole op: after two 5-round loops instead, the first measured op
    * ran 10–20% slower than the next.
    */
  def warmUp(): Unit = loop(CrowdEai.Rounds)

  def op(): (Vector[RoundTrace], InferState) = loop(CrowdEai.Rounds)

  private def loop(rounds: Int) =
    CrowdLoop.run(ds, new TdhInference(), new EaiAssigner(), inputs.workers(CrowdEai.Workers, CrowdEai.PiP), rounds, CrowdEai.K)

  def check(out: (Vector[RoundTrace], InferState)): Seq[String] = {
    val (trace, state) = out
    val r0 = trace.head.accuracy
    val rN = trace.last.accuracy
    val truths = state.truthValues
    val own = ref.hits(truths).toDouble / ds.numObjects
    Seq(
      if (trace.size != CrowdEai.Rounds + 1) Some(s"trace has ${trace.size} rounds") else None,
      if (r0 != batchAccuracy) Some(s"round-0 accuracy $r0 differs from batch TDH accuracy $batchAccuracy") else None,
      if (!(rN > batchAccuracy)) Some(s"round-${CrowdEai.Rounds} accuracy $rN does not exceed batch TDH accuracy $batchAccuracy") else None,
      if (own != rN) Some(s"benchmark counts final accuracy $own, the trace says $rN") else None,
    ).flatten ++ ref.truthProblems("crowd final state", o => ds.views(o).cands, state.truthIdx) ++
      Workloads.accuracyProblems("crowd final state", ds, ref, truths)
  }

  def hits(out: (Vector[RoundTrace], InferState)): (Long, Long) =
    (ref.hits(out._2.truthValues), ds.numObjects.toLong)
}

object CrowdEai {
  val Rounds = 50
  val K = 5
  val Workers = 10
  val PiP = 0.75
}
